#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/data_loader.h"
#include "core/early_stop.h"
#include "core/edge_sampler.h"
#include "core/evaluator.h"
#include "core/leaderboard.h"
#include "core/reindex.h"
#include "datagen/catalog.h"
#include "obs/metrics.h"

namespace benchtemp::core {
namespace {

using graph::TemporalGraph;

// ---------------------------------------------------------------------------
// Reindexing (Section 3.1 / Fig. 3).
// ---------------------------------------------------------------------------

TEST(ReindexTest, HeterogeneousCompactsAndSeparatesSides) {
  // Sparse ids with a big gap, as in raw Taobao.
  TemporalGraph g;
  g.AddInteraction(1000, 5000, 1.0);
  g.AddInteraction(2000, 5000, 2.0);
  g.AddInteraction(1000, 7000, 3.0);
  ReindexResult result = ReindexHeterogeneous(g);
  EXPECT_EQ(result.num_users, 2);
  EXPECT_EQ(result.graph.num_nodes(), 4);  // 2 users + 2 items
  for (const auto& e : result.graph.events()) {
    EXPECT_LT(e.src, result.num_users);
    EXPECT_GE(e.dst, result.num_users);
  }
  // The feature-matrix shrink the paper reports for Taobao: id space went
  // from 7001 to 4.
  EXPECT_EQ(result.mapping.size(), 7001u);
}

TEST(ReindexTest, HomogeneousJointRange) {
  TemporalGraph g;
  g.AddInteraction(500, 900, 1.0);
  g.AddInteraction(900, 500, 2.0);
  g.AddInteraction(100, 900, 3.0);
  ReindexResult result = ReindexHomogeneous(g);
  EXPECT_EQ(result.graph.num_nodes(), 3);
  std::set<int32_t> ids;
  for (const auto& e : result.graph.events()) {
    ids.insert(e.src);
    ids.insert(e.dst);
  }
  EXPECT_EQ(ids, (std::set<int32_t>{0, 1, 2}));
}

TEST(ReindexTest, PreservesOrderAndLabels) {
  TemporalGraph g;
  g.AddInteraction(10, 20, 1.0, 1);
  g.AddInteraction(30, 20, 2.0, 0);
  ReindexResult result = ReindexHomogeneous(g);
  EXPECT_DOUBLE_EQ(result.graph.event(0).ts, 1.0);
  EXPECT_EQ(result.graph.event(0).label, 1);
  EXPECT_EQ(result.graph.event(1).label, 0);
}

TEST(ReindexTest, BuildBenchmarkInitializesFeatures) {
  TemporalGraph g;
  g.AddInteraction(3, 9, 1.0);
  ReindexResult result = BuildBenchmarkDataset(g, /*heterogeneous=*/true,
                                               /*feature_dim=*/172);
  EXPECT_EQ(result.graph.node_feature_dim(), 172);
  EXPECT_EQ(result.graph.node_features().rows(), 2);
}

// ---------------------------------------------------------------------------
// DataLoader split invariants, property-checked across the whole catalog.
// ---------------------------------------------------------------------------

class SplitPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SplitPropertyTest, Invariants) {
  const datagen::DatasetSpec* spec = datagen::FindDataset(GetParam());
  ASSERT_NE(spec, nullptr);
  TemporalGraph g = datagen::LoadDataset(*spec);
  SplitConfig config;
  LinkPredictionSplit split = SplitLinkPrediction(g, config);

  // Window boundaries: chronological 70/15/15.
  EXPECT_NEAR(static_cast<double>(split.train_end) / g.num_events(), 0.70,
              0.02);
  EXPECT_NEAR(static_cast<double>(split.val_end) / g.num_events(), 0.85,
              0.02);

  auto unseen = [&](int32_t node) {
    return split.is_unseen[static_cast<size_t>(node)] != 0;
  };
  // No training edge touches an unseen node; all are inside the window.
  for (int64_t i : split.train_events) {
    EXPECT_LT(i, split.train_end);
    EXPECT_FALSE(unseen(g.event(i).src));
    EXPECT_FALSE(unseen(g.event(i).dst));
  }
  // Transductive test = whole test window.
  EXPECT_EQ(static_cast<int64_t>(split.test_events.size()),
            g.num_events() - split.val_end);

  // Filtration laws: NewOld ∪ NewNew == Inductive, disjoint.
  std::set<int64_t> new_old(split.test_new_old.begin(),
                            split.test_new_old.end());
  std::set<int64_t> new_new(split.test_new_new.begin(),
                            split.test_new_new.end());
  std::set<int64_t> inductive(split.test_inductive.begin(),
                              split.test_inductive.end());
  std::set<int64_t> unioned = new_old;
  unioned.insert(new_new.begin(), new_new.end());
  EXPECT_EQ(unioned, inductive);
  for (int64_t i : new_old) EXPECT_EQ(new_new.count(i), 0u);

  // Membership rules per event.
  for (int64_t i : split.test_inductive) {
    const auto& e = g.event(i);
    EXPECT_TRUE(unseen(e.src) || unseen(e.dst));
  }
  for (int64_t i : split.test_new_new) {
    const auto& e = g.event(i);
    EXPECT_TRUE(unseen(e.src) && unseen(e.dst));
  }
  for (int64_t i : split.test_new_old) {
    const auto& e = g.event(i);
    EXPECT_NE(unseen(e.src), unseen(e.dst));
  }

  // Some nodes were actually masked and appear in the test stream.
  EXPECT_GT(split.num_unseen_nodes, 0);
  EXPECT_FALSE(split.test_inductive.empty());

  // Same seed -> same split.
  LinkPredictionSplit again = SplitLinkPrediction(g, config);
  EXPECT_EQ(again.train_events, split.train_events);
  EXPECT_EQ(again.test_new_new, split.test_new_new);
}

INSTANTIATE_TEST_SUITE_P(
    AllMainDatasets, SplitPropertyTest,
    ::testing::Values("Reddit", "Wikipedia", "MOOC", "LastFM", "Taobao",
                      "Enron", "SocialEvo", "UCI", "CollegeMsg", "CanParl",
                      "Contact", "Flights", "UNTrade", "USLegis", "UNVote"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(DataLoaderTest, NodeClassificationSplitCoversStream) {
  TemporalGraph g = datagen::LoadDataset(*datagen::FindDataset("MOOC"));
  NodeClassificationSplit split = SplitNodeClassification(g, SplitConfig());
  EXPECT_EQ(static_cast<int64_t>(split.train_events.size() +
                                 split.val_events.size() +
                                 split.test_events.size()),
            g.num_events());
  // Chronological: max(train) < min(val) < ... .
  EXPECT_LT(split.train_events.back(), split.val_events.front());
  EXPECT_LT(split.val_events.back(), split.test_events.front());
}

TEST(DataLoaderTest, SetStats) {
  TemporalGraph g;
  g.AddInteraction(0, 1, 1.0);
  g.AddInteraction(1, 2, 2.0);
  const SetStats stats = ComputeSetStats(g, {0, 1});
  EXPECT_EQ(stats.num_nodes, 3);
  EXPECT_EQ(stats.num_edges, 2);
}

// ---------------------------------------------------------------------------
// EdgeSampler.
// ---------------------------------------------------------------------------

TEST(EdgeSamplerTest, RandomSamplerRangeAndKeyedStreams) {
  RandomEdgeSampler sampler(10, 20, 7);
  std::vector<int32_t> srcs(100, 0);
  std::vector<int32_t> positives(100, 15);
  const auto first = sampler.SampleNegativesKeyed(7, srcs, positives);
  for (int32_t d : first) {
    EXPECT_GE(d, 10);
    EXPECT_LT(d, 20);
    EXPECT_NE(d, 15);  // collision-free vs the positive
  }
  // A stream seed fixes the draws; another seed draws another stream.
  EXPECT_EQ(sampler.SampleNegativesKeyed(7, srcs, positives), first);
  EXPECT_NE(sampler.SampleNegativesKeyed(8, srcs, positives), first);
}

TEST(EdgeSamplerTest, HistoricalSamplesTrainDestinations) {
  TemporalGraph g;
  g.AddInteraction(0, 5, 1.0);
  g.AddInteraction(0, 6, 2.0);
  g.AddInteraction(1, 7, 3.0);
  g.AddInteraction(2, 8, 4.0);  // not in train
  HistoricalEdgeSampler sampler(g, {0, 1, 2}, 5, 9);
  std::vector<int32_t> srcs = {0, 0, 0, 0, 1};
  std::vector<int32_t> positives(5, 8);  // outside every source's history
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const auto negatives = sampler.SampleNegativesKeyed(trial, srcs, positives);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(negatives[i] == 5 || negatives[i] == 6);
    }
    EXPECT_EQ(negatives[4], 7);
  }
}

TEST(EdgeSamplerTest, HistoricalFallsBackToRandom) {
  TemporalGraph g;
  g.AddInteraction(0, 5, 1.0);
  g.AddInteraction(3, 6, 1.5);
  HistoricalEdgeSampler sampler(g, {0}, 5, 7);
  // Source 3 has no training history -> uniform fallback stays in range
  // and avoids the positive (6), so only 5 remains.
  const auto negatives =
      sampler.SampleNegativesKeyed(3, {3, 3, 3}, {6, 6, 6});
  for (int32_t d : negatives) {
    EXPECT_EQ(d, 5);
  }
}

TEST(EdgeSamplerTest, InductiveSamplesUnseenEdgesOnly) {
  TemporalGraph g;
  g.AddInteraction(0, 5, 1.0);  // train
  g.AddInteraction(1, 6, 2.0);  // train
  g.AddInteraction(0, 7, 3.0);  // test-only pair -> dst 7 eligible
  g.AddInteraction(2, 8, 4.0);  // test-only pair -> dst 8 eligible
  InductiveEdgeSampler sampler(g, {0, 1}, 5, 9);
  for (uint64_t trial = 0; trial < 30; ++trial) {
    for (int32_t d :
         sampler.SampleNegativesKeyed(trial, {0, 1, 2}, {5, 6, 5})) {
      EXPECT_TRUE(d == 7 || d == 8);
    }
  }
}

TEST(EdgeSamplerTest, FactoryCoversAllModes) {
  TemporalGraph g;
  g.AddInteraction(0, 1, 1.0);
  for (NegativeSampling mode :
       {NegativeSampling::kRandom, NegativeSampling::kHistorical,
        NegativeSampling::kInductive}) {
    auto sampler = MakeEdgeSampler(mode, g, {0}, 0, 2, 1);
    ASSERT_NE(sampler, nullptr) << NegativeSamplingName(mode);
    EXPECT_EQ(sampler->SampleNegativesKeyed(1, {0}, {1}).size(), 1u);
  }
}

/// A graph whose pools collide and run dry. Source 0 has eleven training
/// destinations (10..20), source 1 only {10}, source 3 {10, 11}, source 2
/// none; the held-out pairs (1, 11), (2, 12) and (4, 31) leave the unseen
/// pool {11, 12, 31}.
TemporalGraph CollidingGraph(std::vector<int64_t>* train_events) {
  TemporalGraph g;
  for (int32_t d = 10; d <= 20; ++d) g.AddInteraction(0, d, d);
  g.AddInteraction(1, 10, 21.0);
  g.AddInteraction(3, 10, 22.0);
  g.AddInteraction(3, 11, 23.0);
  g.AddInteraction(1, 11, 24.0);  // held out
  g.AddInteraction(2, 12, 25.0);  // held out
  g.AddInteraction(4, 31, 26.0);  // held out
  for (int64_t i = 0; i < 14; ++i) train_events->push_back(i);
  return g;
}

/// Every sampler's draws and counters at fixed seeds, pinned bit for bit:
/// a change that moves a single RNG call changes these bytes.
TEST(EdgeSamplerTest, KeyedDrawsAndCountersAreGolden) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  std::vector<int64_t> train_events;
  const TemporalGraph g = CollidingGraph(&train_events);
  std::vector<int64_t> all_events(train_events);
  all_events.push_back(14);
  all_events.push_back(15);
  all_events.push_back(16);
  const std::vector<int32_t> srcs = {0, 1, 2, 3, 0, 1, 2, 3,
                                     0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<int32_t> positives = {10, 10, 11, 11, 12, 10, 13, 11,
                                          11, 10, 12, 10, 13, 12, 10, 11};
  struct Case {
    const char* name;
    std::unique_ptr<EdgeSampler> sampler;
    std::vector<int32_t> negatives;
    int64_t collisions;
    int64_t fallbacks;
  };
  const Case cases[] = {
      {"Random",
       MakeEdgeSampler(NegativeSampling::kRandom, g, train_events, 10, 14, 1),
       {13, 11, 10, 12, 13, 11, 12, 13, 13, 11, 11, 11, 10, 10, 13, 13},
       1,
       0},
      {"Historical",
       MakeEdgeSampler(NegativeSampling::kHistorical, g, train_events, 10, 14,
                       1),
       {19, 11, 10, 10, 19, 11, 10, 10, 13, 13, 10, 11, 12, 10, 13, 10},
       35,
       7},
      {"Inductive",
       MakeEdgeSampler(NegativeSampling::kInductive, g, train_events, 10, 14,
                       1),
       {31, 11, 12, 12, 31, 12, 12, 31, 31, 12, 11, 11, 31, 31, 11, 12},
       4,
       0},
      {"Inductive, empty pool",
       MakeEdgeSampler(NegativeSampling::kInductive, g, all_events, 10, 14,
                       1),
       {13, 11, 10, 12, 13, 11, 12, 13, 13, 11, 11, 11, 10, 10, 13, 13},
       1,
       16},
  };
  for (const Case& c : cases) {
    registry.Reset();
    EXPECT_EQ(c.sampler->SampleNegativesKeyed(0x5eed, srcs, positives),
              c.negatives)
        << c.name;
    EXPECT_EQ(registry.value(obs::Counter::kSamplerCollisionsRejected),
              c.collisions)
        << c.name;
    EXPECT_EQ(registry.value(obs::Counter::kSamplerPoolFallbacks),
              c.fallbacks)
        << c.name;
    EXPECT_EQ(registry.value(obs::Counter::kSamplerNegatives), 16) << c.name;
  }

  CandidateConfig config;
  config.k = 20;
  config.historical_fraction = 0.5;
  const CandidateSampler candidates(g, train_events, 10, 32, config);
  registry.Reset();
  const std::vector<int32_t> expected = {
      11, 14, 18, 12, 17, 13, 19, 10, 20, 16, 25, 22, 21, 26, 24, 30, 23, 31,
      29, 28, 23, 27, 17, 19, 14, 29, 20, 11, 31, 15, 22, 13, 16, 30, 18, 26,
      21, 25, 24, 28, 12, 22, 27, 28, 11, 10, 18, 21, 20, 16, 24, 15, 31, 14,
      29, 26, 17, 25, 13, 19, 10, 29, 31, 27, 26, 21, 20, 23, 16, 24, 22, 25,
      17, 12, 18, 28, 30, 19, 13, 14};
  EXPECT_EQ(candidates.SampleCandidateBatch(0xcafe, {0, 1, 2, 3},
                                            {15, 10, 30, 11}),
            expected);
  EXPECT_EQ(registry.value(obs::Counter::kSamplerCollisionsRejected), 145);
  EXPECT_EQ(registry.value(obs::Counter::kSamplerPoolFallbacks), 29);
  EXPECT_EQ(registry.value(obs::Counter::kSamplerNegatives), 80);
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
}

// ---------------------------------------------------------------------------
// Evaluator.
// ---------------------------------------------------------------------------

TEST(EvaluatorTest, PerfectAndInvertedAuc) {
  std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  std::vector<int> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 1.0);
  std::vector<int> inverted = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(RocAuc(scores, inverted), 0.0);
}

TEST(EvaluatorTest, AucInvariantToMonotoneTransform) {
  std::vector<double> scores = {0.1, 0.4, 0.35, 0.8, 0.05, 0.6};
  std::vector<int> labels = {0, 1, 0, 1, 0, 1};
  std::vector<double> transformed;
  for (double s : scores) transformed.push_back(100.0 * s + 5.0);
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), RocAuc(transformed, labels));
}

TEST(EvaluatorTest, AucTiesGetHalfCredit) {
  std::vector<double> scores = {0.5, 0.5};
  std::vector<int> labels = {1, 0};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 0.5);
}

TEST(EvaluatorTest, AucDegenerateInputs) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2}, {0, 0}), 0.5);
}

TEST(EvaluatorTest, AucKnownValue) {
  // One mis-ranked pair out of 4: AUC = 3/4.
  std::vector<double> scores = {0.9, 0.3, 0.6, 0.1};
  std::vector<int> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 0.75);
}

TEST(EvaluatorTest, AveragePrecisionPerfect) {
  EXPECT_DOUBLE_EQ(AveragePrecision({0.9, 0.8, 0.1}, {1, 1, 0}), 1.0);
}

TEST(EvaluatorTest, AveragePrecisionKnownValue) {
  // Ranking: pos, neg, pos -> AP = (1/1 + 2/3) / 2 = 5/6.
  std::vector<double> scores = {0.9, 0.8, 0.7};
  std::vector<int> labels = {1, 0, 1};
  EXPECT_NEAR(AveragePrecision(scores, labels), 5.0 / 6.0, 1e-9);
}

TEST(EvaluatorTest, AveragePrecisionLowerBoundedByPositiveRate) {
  // Random scores: AP ~ positive rate, never dramatically below.
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 1000; ++i) {
    scores.push_back((i * 37 % 101) / 101.0);
    labels.push_back(i % 2);
  }
  EXPECT_GT(AveragePrecision(scores, labels), 0.4);
}

TEST(EvaluatorTest, WeightedPrfPerfect) {
  std::vector<int> y = {0, 1, 2, 1, 0};
  const WeightedPrf prf = WeightedPrecisionRecallF1(y, y, 3);
  EXPECT_DOUBLE_EQ(prf.precision, 1.0);
  EXPECT_DOUBLE_EQ(prf.recall, 1.0);
  EXPECT_DOUBLE_EQ(prf.f1, 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(y, y), 1.0);
}

TEST(EvaluatorTest, WeightedPrfMajorityBaseline) {
  // Predicting the majority class everywhere: recall == accuracy ==
  // majority share; precision is share^... computed per formula.
  std::vector<int> actual = {0, 0, 0, 1};
  std::vector<int> predicted = {0, 0, 0, 0};
  const WeightedPrf prf = WeightedPrecisionRecallF1(predicted, actual, 2);
  EXPECT_DOUBLE_EQ(Accuracy(predicted, actual), 0.75);
  EXPECT_DOUBLE_EQ(prf.recall, 0.75);
  EXPECT_NEAR(prf.precision, 0.75 * 0.75, 1e-9);
}

TEST(EvaluatorTest, SummarizeMeanStd) {
  const MeanStd ms = Summarize({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ms.mean, 2.0);
  // Sample (ddof=1) std, the numpy convention for the paper's 3-run tables.
  EXPECT_NEAR(ms.std, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(Summarize({}).mean, 0.0);
  EXPECT_DOUBLE_EQ(Summarize({4.2}).std, 0.0);
}

// ---------------------------------------------------------------------------
// EarlyStopMonitor.
// ---------------------------------------------------------------------------

TEST(EarlyStopTest, StopsAfterPatience) {
  EarlyStopMonitor monitor(3, 1e-3);
  EXPECT_FALSE(monitor.Update(0.80));
  EXPECT_FALSE(monitor.Update(0.85));
  EXPECT_FALSE(monitor.Update(0.85));  // no improvement x1
  EXPECT_FALSE(monitor.Update(0.84));  // x2
  EXPECT_TRUE(monitor.Update(0.85));   // x3 (within tolerance) -> stop
  EXPECT_EQ(monitor.best_epoch(), 1);
  EXPECT_DOUBLE_EQ(monitor.best_metric(), 0.85);
}

TEST(EarlyStopTest, ToleranceGatesImprovement) {
  EarlyStopMonitor monitor(1, 1e-2);
  EXPECT_FALSE(monitor.Update(0.5));
  // +0.005 < tolerance: counts as no improvement, patience 1 -> stop.
  EXPECT_TRUE(monitor.Update(0.505));
}

TEST(EarlyStopTest, ImprovementResetsPatience) {
  EarlyStopMonitor monitor(2, 1e-3);
  EXPECT_FALSE(monitor.Update(0.5));
  EXPECT_FALSE(monitor.Update(0.5));   // miss 1
  EXPECT_FALSE(monitor.Update(0.6));   // improvement resets
  EXPECT_FALSE(monitor.Update(0.6));   // miss 1
  EXPECT_TRUE(monitor.Update(0.6));    // miss 2 -> stop
}

// ---------------------------------------------------------------------------
// Leaderboard.
// ---------------------------------------------------------------------------

LeaderboardRecord Rec(const std::string& model, const std::string& dataset,
                      double mean, const std::string& annotation = "") {
  LeaderboardRecord r;
  r.model = model;
  r.dataset = dataset;
  r.task = "link_prediction";
  r.setting = "Transductive";
  r.metric = "AUC";
  r.mean = mean;
  r.annotation = annotation;
  return r;
}

TEST(LeaderboardTest, RankAndAverageRank) {
  Leaderboard board;
  board.Add(Rec("A", "D1", 0.9));
  board.Add(Rec("B", "D1", 0.8));
  board.Add(Rec("C", "D1", 0.7));
  board.Add(Rec("A", "D2", 0.6));
  board.Add(Rec("B", "D2", 0.9));
  board.Add(Rec("C", "D2", 0.7, "*"));  // failed
  EXPECT_EQ(board.Rank("A", "D1", "link_prediction", "Transductive", "AUC"),
            1);
  EXPECT_EQ(board.Rank("C", "D1", "link_prediction", "Transductive", "AUC"),
            3);
  EXPECT_EQ(board.Rank("C", "D2", "link_prediction", "Transductive", "AUC"),
            0);  // failed cell has no rank
  // A: ranks 1 and 2 -> 1.5. C: 3 and worst(3) -> 3.
  EXPECT_DOUBLE_EQ(board.AverageRank("A", {"D1", "D2"}, "link_prediction",
                                     "Transductive", "AUC"),
                   1.5);
  EXPECT_DOUBLE_EQ(board.AverageRank("C", {"D1", "D2"}, "link_prediction",
                                     "Transductive", "AUC"),
                   3.0);
}

TEST(LeaderboardTest, FormatTableMarksBestAndSecond) {
  Leaderboard board;
  board.Add(Rec("A", "D1", 0.90));
  board.Add(Rec("B", "D1", 0.88));
  board.Add(Rec("C", "D1", 0.50));
  const std::string table =
      board.FormatTable({"A", "B", "C"}, {"D1"}, "link_prediction",
                        "Transductive", "AUC");
  EXPECT_NE(table.find("**0.9000"), std::string::npos);
  EXPECT_NE(table.find("_0.8800"), std::string::npos);
  // C trails by > 0.05: no second-best marker.
  EXPECT_EQ(table.find("_0.5000"), std::string::npos);
}

TEST(LeaderboardTest, SecondBestGapRule) {
  Leaderboard board;
  board.Add(Rec("A", "D1", 0.90));
  board.Add(Rec("B", "D1", 0.80));  // gap 0.10 > 0.05
  const std::string table = board.FormatTable(
      {"A", "B"}, {"D1"}, "link_prediction", "Transductive", "AUC");
  EXPECT_EQ(table.find("_0.8000"), std::string::npos);
}

TEST(LeaderboardTest, AnnotationRendered) {
  Leaderboard board;
  board.Add(Rec("A", "D1", 0.0, "*"));
  board.Add(Rec("B", "D1", 0.7));
  const std::string table = board.FormatTable(
      {"A", "B"}, {"D1"}, "link_prediction", "Transductive", "AUC");
  EXPECT_NE(table.find("\t*"), std::string::npos);
  EXPECT_NE(board.ToMarkdown().find("| A |"), std::string::npos);
}

}  // namespace
}  // namespace benchtemp::core
