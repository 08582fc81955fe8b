#include "graph/temporal_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/neighbor_finder.h"
#include "tensor/numeric.h"

namespace benchtemp::graph {
namespace {

/// True when the events are in non-decreasing timestamp order.
bool Chronological(const TemporalGraph& g) {
  return std::ranges::is_sorted(g.events(), {}, &Interaction::ts);
}

/// Prefix length Before() reports for `node` at `ts`.
int64_t CountBefore(const NeighborFinder& finder, int32_t node, double ts) {
  int64_t count = 0;
  finder.Before(node, ts, &count);
  return count;
}

TemporalGraph MakeLineGraph() {
  // Events: (0,1,@1), (1,2,@2), (2,3,@3), (0,2,@4).
  TemporalGraph g;
  g.AddInteraction(0, 1, 1.0);
  g.AddInteraction(1, 2, 2.0);
  g.AddInteraction(2, 3, 3.0);
  g.AddInteraction(0, 2, 4.0);
  return g;
}

TEST(TemporalGraphTest, BasicAccessors) {
  TemporalGraph g = MakeLineGraph();
  EXPECT_EQ(g.num_events(), 4);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.event(1).src, 1);
  EXPECT_EQ(g.event(1).edge_idx, 1);
  EXPECT_TRUE(Chronological(g));
}

TEST(TemporalGraphTest, SortByTime) {
  TemporalGraph g;
  g.AddInteraction(0, 1, 5.0);
  g.AddInteraction(1, 2, 1.0);
  EXPECT_FALSE(Chronological(g));
  g.SortByTime();
  EXPECT_TRUE(Chronological(g));
  // edge_idx stays attached to its event through the sort.
  EXPECT_EQ(g.event(0).edge_idx, 1);
}

TEST(TemporalGraphTest, FeatureInitialization) {
  TemporalGraph g = MakeLineGraph();
  g.InitNodeFeatures(16);
  EXPECT_EQ(g.node_feature_dim(), 16);
  EXPECT_EQ(g.node_features().rows(), 4);
  tensor::Tensor edge_features({4, 3});
  g.SetEdgeFeatures(edge_features);
  EXPECT_EQ(g.edge_feature_dim(), 3);
}

TEST(TemporalGraphTest, Labels) {
  TemporalGraph g;
  g.AddInteraction(0, 1, 1.0, 0);
  g.AddInteraction(0, 1, 2.0, 1);
  EXPECT_TRUE(g.HasLabels());
  EXPECT_EQ(g.NumLabelClasses(), 2);
  TemporalGraph unlabeled = MakeLineGraph();
  EXPECT_FALSE(unlabeled.HasLabels());
}

TEST(TemporalGraphTest, MeanEventGap) {
  TemporalGraph empty;
  EXPECT_DOUBLE_EQ(empty.MeanEventGap(), 1.0);
  TemporalGraph one;
  one.AddInteraction(0, 1, 7.0);
  EXPECT_DOUBLE_EQ(one.MeanEventGap(), 1.0);
  // Equal timestamps: a zero span, so the scale stays 1.
  TemporalGraph same;
  for (int i = 0; i < 3; ++i) same.AddInteraction(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(same.MeanEventGap(), 1.0);
  // Span 10 over 4 events.
  TemporalGraph g;
  for (const double ts : {2.0, 3.0, 8.0, 12.0}) g.AddInteraction(0, 1, ts);
  EXPECT_DOUBLE_EQ(g.MeanEventGap(), 2.5);
}

TEST(TemporalGraphTest, StatsReuseAndDensity) {
  TemporalGraph g;
  g.AddInteraction(0, 1, 1.0);
  g.AddInteraction(0, 1, 2.0);
  g.AddInteraction(0, 1, 3.0);
  g.AddInteraction(1, 0, 4.0);
  const auto stats = g.ComputeStats();
  EXPECT_EQ(stats.num_edges, 4);
  EXPECT_EQ(stats.distinct_edges, 2);  // (0,1) and (1,0)
  EXPECT_DOUBLE_EQ(stats.avg_degree, 2.0);
  EXPECT_NEAR(stats.edge_reuse_ratio, 0.5, 1e-9);
  EXPECT_EQ(stats.distinct_timestamps, 4);
  EXPECT_DOUBLE_EQ(stats.time_span, 3.0);
}

TEST(NeighborFinderTest, BeforeIsStrict) {
  TemporalGraph g = MakeLineGraph();
  NeighborFinder finder(g);
  int64_t count = 0;
  // Node 2 at t=3: history is (1,@2) only; the @3 event is not yet visible.
  const TemporalNeighbor* history = finder.Before(2, 3.0, &count);
  ASSERT_EQ(count, 1);
  EXPECT_EQ(history[0].neighbor, 1);
  // At t=3.5 the @3 event is visible.
  finder.Before(2, 3.5, &count);
  EXPECT_EQ(count, 2);
}

TEST(NeighborFinderTest, Undirected) {
  TemporalGraph g = MakeLineGraph();
  NeighborFinder finder(g);
  int64_t count = 0;
  const TemporalNeighbor* history = finder.Before(1, 10.0, &count);
  ASSERT_EQ(count, 2);  // events (0,1) and (1,2)
  EXPECT_EQ(history[0].neighbor, 0);
  EXPECT_EQ(history[1].neighbor, 2);
}

TEST(NeighborFinderTest, EventSubsetConstructor) {
  TemporalGraph g = MakeLineGraph();
  NeighborFinder finder(g, std::vector<int64_t>{0, 3});
  int64_t count = 0;
  finder.Before(2, 10.0, &count);
  EXPECT_EQ(count, 1);  // only event 3 = (0,2,@4)
  finder.Before(0, 10.0, &count);
  EXPECT_EQ(count, 2);
}

TEST(NeighborFinderTest, SampleNeighborhoodRespectsTime) {
  TemporalGraph g = MakeLineGraph();
  NeighborFinder finder(g);
  tensor::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const SampledNeighborhood nb =
        finder.SampleNeighborhood({2}, {3.5}, 4, /*window=*/0.0, rng);
    ASSERT_EQ(nb.flat_times.size(), 4u);
    EXPECT_EQ(nb.empty_queries, 0);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_LT(nb.flat_times[j], 3.5);
      EXPECT_FLOAT_EQ(nb.mask.at(0, static_cast<int64_t>(j)), 1.0f);
    }
  }
}

/// The per-node draw SampleNeighborhood replaced, written out: k draws of
/// history[lo + UniformInt(count - lo)], where `lo` skips the history
/// before the window; nothing is drawn when no history is kept.
std::vector<TemporalNeighbor> ReferenceDraw(const NeighborFinder& finder,
                                            int32_t node, double ts,
                                            int64_t k, double window,
                                            tensor::Rng& rng) {
  int64_t count = 0;
  const TemporalNeighbor* history = finder.Before(node, ts, &count);
  int64_t lo = 0;
  while (window > 0.0 && lo < count && history[lo].ts < ts - window) ++lo;
  std::vector<TemporalNeighbor> out;
  for (int64_t j = 0; lo < count && j < k; ++j) {
    out.push_back(history[lo + rng.UniformInt(count - lo)]);
  }
  return out;
}

TEST(NeighborFinderTest, SampleNeighborhoodMatchesPerNodeDraws) {
  TemporalGraph g;
  tensor::Rng build(3);
  for (int i = 0; i < 400; ++i) {
    g.AddInteraction(tensor::NarrowId(build.UniformInt(30), "test: src"),
                     30 + tensor::NarrowId(build.UniformInt(10), "test: dst"),
                     i);
  }
  NeighborFinder finder(g);
  std::vector<int32_t> nodes;
  std::vector<double> ts;
  for (int i = 0; i < 100; ++i) {
    // Node 40 is past the id space: a query with no history.
    nodes.push_back(tensor::NarrowId(build.UniformInt(41), "test: node"));
    ts.push_back(static_cast<double>(build.UniformInt(420)) + 0.5);
  }
  const int64_t k = 5;
  for (double window : {0.0, 60.0}) {
    tensor::Rng rng(17);
    tensor::Rng reference_rng(17);
    const SampledNeighborhood nb =
        finder.SampleNeighborhood(nodes, ts, k, window, rng);
    ASSERT_EQ(nb.num_queries, 100);
    ASSERT_EQ(nb.flat_neighbors.size(), static_cast<size_t>(100 * k));
    int64_t empty = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const std::vector<TemporalNeighbor> expected =
          ReferenceDraw(finder, nodes[i], ts[i], k, window, reference_rng);
      if (expected.empty()) ++empty;
      for (int64_t j = 0; j < k; ++j) {
        const size_t slot = i * static_cast<size_t>(k) +
                            static_cast<size_t>(j);
        const bool drawn = !expected.empty();
        const TemporalNeighbor want =
            drawn ? expected[static_cast<size_t>(j)] : TemporalNeighbor{};
        const double dt = drawn ? ts[i] - want.ts : 0.0;
        EXPECT_EQ(nb.flat_neighbors[slot], want.neighbor) << slot;
        EXPECT_EQ(nb.flat_edges[slot], want.edge_idx) << slot;
        EXPECT_TRUE(tensor::ExactlyEqual(nb.flat_times[slot], want.ts))
            << slot;
        EXPECT_TRUE(tensor::ExactlyEqual(nb.flat_dts[slot],
                                         static_cast<float>(dt)))
            << slot;
        EXPECT_TRUE(tensor::ExactlyEqual(
            nb.mask.at(static_cast<int64_t>(i), j), drawn ? 1.0f : 0.0f))
            << slot;
      }
    }
    EXPECT_EQ(nb.empty_queries, empty) << "window " << window;
    EXPECT_GT(empty, 0) << "window " << window;
    // Same draws in the same order: both streams end in the same state.
    EXPECT_EQ(rng.SaveState(), reference_rng.SaveState())
        << "window " << window;
  }
}

TEST(NeighborFinderTest, SampleNeighborhoodWindowEdgeCases) {
  // Line graph histories: node 0 has (1,@1) and (2,@4); node 3 has (2,@3).
  TemporalGraph g = MakeLineGraph();
  g.AddInteraction(4, 5, 10.0);  // past the indexed prefix
  NeighborFinder finder(g, std::vector<int64_t>{0, 1, 2, 3});
  tensor::Rng rng(5);
  const std::string before = rng.SaveState();
  // Node 3's only event (@3) lies before the window [4, 5); node 4 has no
  // indexed history at all; node 0 keeps only (2,@4).
  const SampledNeighborhood nb =
      finder.SampleNeighborhood({3, 4, 0}, {5.0, 5.0, 5.0}, 2, 1.0, rng);
  EXPECT_EQ(nb.num_queries, 3);
  EXPECT_EQ(nb.empty_queries, 2);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(tensor::IsExactlyZero(nb.mask.at(i, j)));
      EXPECT_EQ(nb.flat_neighbors[static_cast<size_t>(i * 2 + j)], 0);
    }
  }
  for (size_t slot : {4u, 5u}) {
    EXPECT_EQ(nb.flat_neighbors[slot], 2);
    EXPECT_EQ(nb.flat_edges[slot], 3);
    EXPECT_TRUE(tensor::ExactlyEqual(nb.flat_dts[slot], 1.0f));
  }
  // An empty query draws nothing: only node 0's two draws moved the RNG.
  tensor::Rng replay(5);
  ASSERT_EQ(replay.SaveState(), before);
  replay.UniformInt(1);
  replay.UniformInt(1);
  EXPECT_EQ(rng.SaveState(), replay.SaveState());
  // Unwindowed, node 3 keeps its history: the window alone emptied it.
  const SampledNeighborhood all =
      finder.SampleNeighborhood({3, 4}, {5.0, 5.0}, 2, 0.0, rng);
  EXPECT_EQ(all.empty_queries, 1);
  EXPECT_EQ(all.flat_neighbors[0], 2);
}

TEST(NeighborFinderTest, BeforeCountIsStrict) {
  TemporalGraph g = MakeLineGraph();
  NeighborFinder finder(g);
  EXPECT_EQ(CountBefore(finder, 0, 0.5), 0);
  EXPECT_EQ(CountBefore(finder, 0, 10.0), 2);
}

TEST(NeighborFinderTest, InOrderQueryStreamReturnsLowerBound) {
  // A sorted-timestamp query stream, the trainer's order: each query
  // returns the exact lower-bound prefix.
  TemporalGraph g;
  for (int i = 0; i < 100; ++i) g.AddInteraction(0, 1 + i % 5, i);
  NeighborFinder finder(g);
  for (int t = 0; t <= 100; ++t) {
    EXPECT_EQ(CountBefore(finder, 0, t), t) << "ts=" << t;
  }
  // Repeated identical timestamps.
  EXPECT_EQ(CountBefore(finder, 0, 42.0), 42);
  EXPECT_EQ(CountBefore(finder, 0, 42.0), 42);
  // Ties: multiple events at one timestamp, Before() is strict.
  TemporalGraph ties;
  for (int i = 0; i < 4; ++i) ties.AddInteraction(0, 1, 5.0);
  NeighborFinder tie_finder(ties);
  EXPECT_EQ(CountBefore(tie_finder, 0, 5.0), 0);
  EXPECT_EQ(CountBefore(tie_finder, 0, 5.5), 4);
  EXPECT_EQ(CountBefore(tie_finder, 0, 5.0), 0);  // rewind after advance
}

TEST(NeighborFinderTest, OutOfOrderQueryStreamReturnsLowerBound) {
  // An unsorted query stream gets the same answers: no query depends on
  // the ones before it.
  TemporalGraph g;
  for (int i = 0; i < 100; ++i) g.AddInteraction(0, 1, i);
  NeighborFinder finder(g);
  const double queries[] = {90.0, 10.0, 55.5, 0.0, 100.0, 3.25, 99.0};
  for (const double ts : queries) {
    const int64_t expected = static_cast<int64_t>(std::ceil(ts));
    EXPECT_EQ(CountBefore(finder, 0, ts), std::min<int64_t>(expected, 100))
        << "ts=" << ts;
  }
  // Interleaved queries on two nodes answer each node independently.
  TemporalGraph two;
  for (int i = 0; i < 10; ++i) {
    two.AddInteraction(0, 2, i);
    two.AddInteraction(1, 3, 10 + i);
  }
  NeighborFinder both(two);
  EXPECT_EQ(CountBefore(both, 0, 5.0), 5);
  EXPECT_EQ(CountBefore(both, 1, 15.0), 5);
  EXPECT_EQ(CountBefore(both, 0, 7.0), 7);
  EXPECT_EQ(CountBefore(both, 1, 12.0), 2);
}

}  // namespace
}  // namespace benchtemp::graph
