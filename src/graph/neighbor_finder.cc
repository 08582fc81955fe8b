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
  cursor_ = std::make_unique<std::atomic<uint32_t>[]>(adjacency_.size());
  for (size_t i = 0; i < adjacency_.size(); ++i) {
    cursor_[i].store(0, std::memory_order_relaxed);
  }
}

const TemporalNeighbor* NeighborFinder::Before(int32_t node, double ts,
                                               int64_t* count) const {
  *count = 0;
  if (node < 0 || node >= num_nodes()) return nullptr;
  const auto& list = adjacency_[static_cast<size_t>(node)];
  const int64_t n = static_cast<int64_t>(list.size());
  const auto before = [&list](int64_t i, double t) { return list[i].ts < t; };

  // Validate the cached prefix length as a search bracket. `hint` is a
  // correct starting point iff every entry below it is still < ts.
  int64_t lo = 0;
  int64_t hi = n;
  int64_t hint = static_cast<int64_t>(
      cursor_[static_cast<size_t>(node)].load(std::memory_order_relaxed));
  if (hint > n) hint = 0;
  if (hint == 0 || before(hint - 1, ts)) {
    // In-order query: gallop forward from the hint (1, 2, 4, ... steps) to
    // find the bracketing range, then binary-search only inside it. A
    // batch that lands at or just past the cursor pays O(1) instead of
    // O(log degree).
    lo = hint;
    int64_t step = 1;
    int64_t probe = hint;
    while (probe < n && before(probe, ts)) {
      lo = probe + 1;
      probe += step;
      step *= 2;
    }
    hi = probe < n ? probe : n;
  }
  const auto first = list.begin() + lo;
  const auto last = list.begin() + hi;
  const auto it = std::lower_bound(
      first, last, ts,
      [](const TemporalNeighbor& entry, double t) { return entry.ts < t; });
  *count = static_cast<int64_t>(it - list.begin());
  // The cursor stores a degree prefix length, not a node id; per-node
  // degree cannot reach 2^32, and a wrapped hint would only fail the
  // bracket check and fall back to the full search.
  // btlint: allow(id-narrowing)
  cursor_[static_cast<size_t>(node)].store(static_cast<uint32_t>(*count),
                                           std::memory_order_relaxed);
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
