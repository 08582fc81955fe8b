#include "graph/neighbor_finder.h"

#include <algorithm>
#include <numeric>

namespace benchtemp::graph {

NeighborFinder::NeighborFinder(const TemporalGraph& graph)
    : NeighborFinder(graph, [&graph] {
        std::vector<int64_t> all(static_cast<size_t>(graph.num_events()));
        std::iota(all.begin(), all.end(), int64_t{0});
        return all;
      }()) {}

NeighborFinder::NeighborFinder(const TemporalGraph& graph,
                               const std::vector<int64_t>& events) {
  adjacency_.resize(static_cast<size_t>(graph.num_nodes()));
  for (int64_t i : events) {
    const Interaction& e = graph.event(i);
    adjacency_[static_cast<size_t>(e.src)].push_back(
        {e.dst, e.edge_idx, e.ts});
    adjacency_[static_cast<size_t>(e.dst)].push_back(
        {e.src, e.edge_idx, e.ts});
  }
  for (auto& list : adjacency_) {
    std::stable_sort(list.begin(), list.end(),
                     [](const TemporalNeighbor& a, const TemporalNeighbor& b) {
                       return a.ts < b.ts;
                     });
  }
}

const TemporalNeighbor* NeighborFinder::Before(int32_t node, double ts,
                                               int64_t* count) const {
  *count = 0;
  if (node < 0 || node >= num_nodes()) return nullptr;
  const auto& list = adjacency_[static_cast<size_t>(node)];
  const auto it = std::lower_bound(
      list.begin(), list.end(), ts,
      [](const TemporalNeighbor& entry, double t) { return entry.ts < t; });
  *count = static_cast<int64_t>(it - list.begin());
  return *count > 0 ? list.data() : nullptr;
}

SampledNeighborhood NeighborFinder::SampleNeighborhood(
    const std::vector<int32_t>& nodes, const std::vector<double>& ts,
    int64_t k, double window, tensor::Rng& rng) const {
  const int64_t n = static_cast<int64_t>(nodes.size());
  const size_t slots = static_cast<size_t>(n * k);
  SampledNeighborhood nb;
  nb.num_queries = n;
  nb.flat_neighbors.assign(slots, 0);
  nb.flat_times.assign(slots, 0.0);
  nb.flat_edges.assign(slots, 0);
  nb.flat_dts.assign(slots, 0.0f);
  nb.mask = tensor::Tensor({n, k});
  for (int64_t i = 0; i < n; ++i) {
    const double t = ts[static_cast<size_t>(i)];
    int64_t count = 0;
    const TemporalNeighbor* history =
        Before(nodes[static_cast<size_t>(i)], t, &count);
    int64_t lo = 0;
    if (window > 0.0 && count > 0) {
      lo = std::lower_bound(history, history + count, t - window,
                            [](const TemporalNeighbor& entry, double start) {
                              return entry.ts < start;
                            }) -
           history;
    }
    if (lo >= count) {
      ++nb.empty_queries;
      continue;
    }
    for (int64_t j = 0; j < k; ++j) {
      const TemporalNeighbor& nbr = history[lo + rng.UniformInt(count - lo)];
      const size_t slot = static_cast<size_t>(i * k + j);
      nb.flat_neighbors[slot] = nbr.neighbor;
      nb.flat_times[slot] = nbr.ts;
      nb.flat_edges[slot] = nbr.edge_idx;
      nb.flat_dts[slot] = static_cast<float>(t - nbr.ts);
      nb.mask.at(i, j) = 1.0f;
    }
  }
  return nb;
}

}  // namespace benchtemp::graph
