#ifndef BENCHTEMP_GRAPH_NEIGHBOR_FINDER_H_
#define BENCHTEMP_GRAPH_NEIGHBOR_FINDER_H_

#include <cstdint>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp::graph {

/// One temporal adjacency record: node `u` interacted with `neighbor` at
/// `ts` via event `edge_idx`.
struct TemporalNeighbor {
  int32_t neighbor = 0;
  int32_t edge_idx = 0;
  double ts = 0.0;
};

/// One batch of sampled temporal neighborhoods: query i's k draws sit in
/// slots [i*k, (i+1)*k) of the flat arrays, and the [n, k] mask marks the
/// filled slots. A query with no usable history keeps zeroed slots and a
/// zero mask row.
struct SampledNeighborhood {
  std::vector<int32_t> flat_neighbors;
  std::vector<double> flat_times;
  std::vector<int32_t> flat_edges;
  /// Query time minus neighbor time, the input of the time encoders.
  std::vector<float> flat_dts;
  tensor::Tensor mask;
  /// Queries whose (windowed) history came back empty; the consumer decides
  /// whether that is an error (TGAT's "*" on UNTrade).
  int64_t empty_queries = 0;
  int64_t num_queries = 0;
};

/// Index over a set of interactions answering "which neighbors did node u
/// interact with strictly before time t?" — the core query behind every
/// TGNN's message passing and walk sampling.
///
/// Per-node adjacency lists are kept sorted by timestamp so before-time
/// queries are a binary search (O(log d)) plus O(k) sampling.
class NeighborFinder {
 public:
  /// Indexes every event of `graph`. Edges are treated as undirected for
  /// adjacency (both endpoints see the interaction), matching the
  /// reference TGNN implementations.
  explicit NeighborFinder(const TemporalGraph& graph);

  /// Indexes only the given event subset (e.g. the masked training stream
  /// used for inductive jobs).
  NeighborFinder(const TemporalGraph& graph,
                 const std::vector<int64_t>& events);

  /// All interactions of `node` strictly before `ts`, oldest first.
  /// The returned pointers index into internal storage; `count` receives the
  /// prefix length, one lower_bound over the node's sorted list. Returns
  /// nullptr when there are none. The index is immutable after
  /// construction, so concurrent queries need no synchronisation.
  const TemporalNeighbor* Before(int32_t node, double ts,
                                 int64_t* count) const;

  /// The one random temporal-neighborhood draw of the model zoo: for each
  /// query (nodes[i], ts[i]), k neighbors drawn uniformly with replacement
  /// from its history before ts[i], k UniformInt calls on `rng` in query
  /// order. `window` > 0 keeps only the history in
  /// [ts[i] - window, ts[i]); a query whose kept history is empty draws
  /// nothing and counts in `empty_queries`.
  SampledNeighborhood SampleNeighborhood(const std::vector<int32_t>& nodes,
                                         const std::vector<double>& ts,
                                         int64_t k, double window,
                                         tensor::Rng& rng) const;

  int32_t num_nodes() const {
    return static_cast<int32_t>(adjacency_.size());
  }

 private:
  std::vector<std::vector<TemporalNeighbor>> adjacency_;
};

}  // namespace benchtemp::graph

#endif  // BENCHTEMP_GRAPH_NEIGHBOR_FINDER_H_
