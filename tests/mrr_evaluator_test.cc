// Tests for the TGB-style ranking evaluation stack: hand-computed golden
// ranks under both tie policies, the Hits@h tie semantics, CandidateSampler
// laws (collision-freedom, in-set dedup, range clamping, pure keyed
// determinism), the historical/uniform candidate mix, the collision
// counters, and end-to-end bit-identity of MRR/Hits@k across pipeline
// depths and thread counts.

#include "core/mrr_evaluator.h"

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/edge_sampler.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "graph/temporal_graph.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/numeric.h"
#include "tensor/random.h"

namespace benchtemp {
namespace {

using core::CandidateConfig;
using core::CandidateSampler;
using core::RankingMetrics;
using core::RankOfPositive;
using core::TiePolicy;
using graph::TemporalGraph;

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TemporalGraph RankGraph(uint64_t seed = 5) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 400;
  cfg.edge_feature_dim = 4;
  cfg.seed = seed;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

/// Restores the thread count and metric registry no matter how a test
/// exits.
class MrrEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
  }
  void TearDown() override {
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
  }
  int original_threads_ = 1;
};

// ---------------------------------------------------------------------------
// RankOfPositive golden values, tie groups pinned under both policies.
// ---------------------------------------------------------------------------

TEST_F(MrrEvaluatorTest, RankGoldenValuesWithTieGroup) {
  // One candidate better (0.95), two exact ties (0.9), two worse.
  const std::vector<double> cand = {0.5, 0.95, 0.9, 0.9, 0.1};
  EXPECT_DOUBLE_EQ(
      RankOfPositive(0.9, cand.data(), 5, TiePolicy::kMeanRank), 3.0);
  EXPECT_DOUBLE_EQ(
      RankOfPositive(0.9, cand.data(), 5, TiePolicy::kOptimistic), 2.0);
}

TEST_F(MrrEvaluatorTest, PositiveBestAndWorstRanks) {
  const std::vector<double> cand = {0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(
      RankOfPositive(0.9, cand.data(), 3, TiePolicy::kMeanRank), 1.0);
  EXPECT_DOUBLE_EQ(
      RankOfPositive(0.0, cand.data(), 3, TiePolicy::kMeanRank), 4.0);
}

TEST_F(MrrEvaluatorTest, ConstantScorerMidranksUnderMeanRank) {
  // A model scoring everything identically must not look like a winner:
  // mean-rank puts the positive mid-pack, optimistic pins it at 1 (the
  // policy's documented purpose of detecting constant scorers).
  const std::vector<double> cand(10, 0.7);
  EXPECT_DOUBLE_EQ(
      RankOfPositive(0.7, cand.data(), 10, TiePolicy::kMeanRank), 6.0);
  EXPECT_DOUBLE_EQ(
      RankOfPositive(0.7, cand.data(), 10, TiePolicy::kOptimistic), 1.0);
}

TEST_F(MrrEvaluatorTest, HitsCutoffsUseHalfIntegerTieRanks) {
  // rank 1.5 (two-way tie at the top) misses Hits@1, makes Hits@10;
  // rank 11 misses Hits@10.
  const RankingMetrics m =
      core::RankingFromRanks({1.0, 1.5, 2.0, 11.0});
  EXPECT_EQ(m.count, 4);
  EXPECT_DOUBLE_EQ(m.hits_at_1, 0.25);
  EXPECT_DOUBLE_EQ(m.hits_at_10, 0.75);
  EXPECT_DOUBLE_EQ(m.mrr, (1.0 + 1.0 / 1.5 + 0.5 + 1.0 / 11.0) / 4.0);
}

TEST_F(MrrEvaluatorTest, EmptyRanksReportZeroCount) {
  const RankingMetrics m = core::RankingFromRanks({});
  EXPECT_EQ(m.count, 0);
  EXPECT_DOUBLE_EQ(m.mrr, 0.0);
}

TEST_F(MrrEvaluatorTest, EvaluatorAccumulatesBatches) {
  // Two batches (two positives, then one), k = 2: row i of a batch holds
  // positive i's candidate scores.
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      batches = {{{0.9, 0.1}, {0.5, 0.2, 0.8, 0.7}}, {{0.6}, {0.6, 0.4}}};
  std::vector<double> ranks;
  for (const auto& [pos, candidates] : batches) {
    for (size_t i = 0; i < pos.size(); ++i) {
      ranks.push_back(RankOfPositive(pos[i], candidates.data() + 2 * i, 2,
                                     TiePolicy::kMeanRank));
    }
  }
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);  // beats {0.5, 0.2}
  EXPECT_DOUBLE_EQ(ranks[1], 3.0);  // below {0.8, 0.7}
  EXPECT_DOUBLE_EQ(ranks[2], 1.5);  // ties 0.6, beats 0.4
  const RankingMetrics m = core::RankingFromRanks(ranks);
  EXPECT_EQ(m.count, 3);
  EXPECT_DOUBLE_EQ(m.mrr, (1.0 + 1.0 / 3.0 + 1.0 / 1.5) / 3.0);
}

// ---------------------------------------------------------------------------
// CandidateSampler laws.
// ---------------------------------------------------------------------------

TEST_F(MrrEvaluatorTest, CandidateSetsAreCollisionFreeAndDeduplicated) {
  const TemporalGraph g = RankGraph();
  std::vector<int64_t> train_events;
  for (int64_t i = 0; i < g.num_events() / 2; ++i) train_events.push_back(i);
  CandidateConfig config;
  config.k = 10;
  const CandidateSampler sampler(g, train_events, 40, 55, config);
  ASSERT_EQ(sampler.k(), 10);
  // Property: over many seeded rows, every candidate set is exactly k
  // distinct in-range destinations, none the positive.
  tensor::Rng rng(7);
  for (int row = 0; row < 500; ++row) {
    const int32_t src = tensor::NarrowId(rng.UniformInt(40), "test: src");
    const int32_t positive =
        40 + tensor::NarrowId(rng.UniformInt(15), "test: dst");
    const std::vector<int32_t> cand =
        sampler.SampleCandidates(tensor::SplitMix64(11, row), src, positive);
    ASSERT_EQ(cand.size(), 10u);
    std::set<int32_t> unique;
    for (int32_t d : cand) {
      EXPECT_GE(d, 40);
      EXPECT_LT(d, 55);
      EXPECT_NE(d, positive);
      unique.insert(d);
    }
    EXPECT_EQ(unique.size(), cand.size()) << "duplicate in row " << row;
  }
}

TEST_F(MrrEvaluatorTest, RequestedKClampsToRangeAndCoversIt) {
  const TemporalGraph g = RankGraph();
  CandidateConfig config;
  config.k = 100;  // far above the 15-destination range
  const CandidateSampler sampler(g, {0, 1, 2}, 40, 55, config);
  ASSERT_EQ(sampler.k(), 14);  // range - 1: all non-positive destinations
  const std::vector<int32_t> cand = sampler.SampleCandidates(3, 0, 47);
  std::set<int32_t> unique(cand.begin(), cand.end());
  EXPECT_EQ(unique.size(), 14u);
  EXPECT_EQ(unique.count(47), 0u);
}

TEST_F(MrrEvaluatorTest, BatchRowsMatchPerRowKeying) {
  const TemporalGraph g = RankGraph();
  std::vector<int64_t> train_events;
  for (int64_t i = 0; i < g.num_events() / 2; ++i) train_events.push_back(i);
  CandidateConfig config;
  config.k = 6;
  const CandidateSampler sampler(g, train_events, 40, 55, config);
  const std::vector<int32_t> srcs = {0, 3, 7, 11};
  const std::vector<int32_t> dsts = {41, 44, 50, 54};
  const uint64_t stream_seed = 99;
  const std::vector<int32_t> batch =
      sampler.SampleCandidateBatch(stream_seed, srcs, dsts);
  ASSERT_EQ(batch.size(), srcs.size() * 6u);
  for (size_t i = 0; i < srcs.size(); ++i) {
    const std::vector<int32_t> row = sampler.SampleCandidates(
        tensor::SplitMix64(stream_seed, static_cast<uint64_t>(i)), srcs[i],
        dsts[i]);
    for (size_t j = 0; j < 6u; ++j) {
      EXPECT_EQ(batch[i * 6 + j], row[j]) << "row " << i << " slot " << j;
    }
  }
  // Same seeds -> same bytes, stateless sampler.
  EXPECT_EQ(sampler.SampleCandidateBatch(stream_seed, srcs, dsts), batch);
}

TEST_F(MrrEvaluatorTest, HistoricalFractionDrawsFromTrainHistory) {
  TemporalGraph g;
  // Source 0's training history: destinations 10..17 (8 of 20 in range).
  for (int32_t d = 10; d < 18; ++d) {
    g.AddInteraction(0, d, static_cast<double>(d));
  }
  g.AddInteraction(1, 25, 100.0);
  std::vector<int64_t> train_events;
  for (int64_t i = 0; i < 8; ++i) train_events.push_back(i);
  CandidateConfig config;
  config.k = 8;
  config.historical_fraction = 0.5;
  const CandidateSampler sampler(g, train_events, 10, 30, config);
  const std::vector<int32_t> cand = sampler.SampleCandidates(5, 0, 20);
  int historical = 0;
  for (int32_t d : cand) {
    if (d >= 10 && d < 18) ++historical;
  }
  // Half of k = 4 slots target the history pool; uniform slots may also
  // land there by chance, never fewer.
  EXPECT_GE(historical, 4);
  // A source with no history degrades to all-uniform (still collision-free
  // and deduplicated), counted as pool fallbacks, not an abort.
  obs::MetricRegistry::OverrideEnabledForTest(1);
  obs::MetricRegistry::Global().Reset();
  const std::vector<int32_t> bare = sampler.SampleCandidates(6, 5, 20);
  std::set<int32_t> unique(bare.begin(), bare.end());
  EXPECT_EQ(unique.size(), bare.size());
  EXPECT_GE(obs::MetricRegistry::Global().value(
                obs::Counter::kSamplerPoolFallbacks),
            4);
}

TEST_F(MrrEvaluatorTest, NegativeSamplerCollisionsAreRejectedAndCounted) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  obs::MetricRegistry::Global().Reset();
  core::RandomEdgeSampler sampler(0, 3, 11);
  // Every positive is inside a 3-wide range: collisions are frequent, every
  // one must be rejected and counted.
  std::vector<int32_t> srcs(300, 0);
  std::vector<int32_t> positives;
  for (int i = 0; i < 300; ++i) positives.push_back(i % 3);
  const std::vector<int32_t> negatives =
      sampler.SampleNegativesKeyed(11, srcs, positives);
  for (size_t i = 0; i < negatives.size(); ++i) {
    EXPECT_NE(negatives[i], positives[i]);
  }
  EXPECT_GT(obs::MetricRegistry::Global().value(
                obs::Counter::kSamplerCollisionsRejected),
            0);
}

// ---------------------------------------------------------------------------
// End-to-end: ranking metrics are bit-identical at any pipeline depth and
// thread count, and candidate work does not perturb the counter digest.
// ---------------------------------------------------------------------------

TEST_F(MrrEvaluatorTest, RankingBitIdenticalAcrossDepthsAndThreads) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  const TemporalGraph g = RankGraph();
  constexpr int kProbes = 4;
  const struct {
    int threads;
    int depth;
  } grid[] = {{1, 0}, {1, 2}, {8, 0}, {8, 2}};
  // One model per ranked-pass query side: TGN (memory rows), TGAT (the
  // previous layer's rows) and DyRep (dense memory).
  for (const models::ModelKind kind :
       {models::ModelKind::kTgn, models::ModelKind::kTgat,
        models::ModelKind::kDyRep}) {
    SCOPED_TRACE(models::ModelKindName(kind));
    std::vector<uint64_t> bits;
    std::vector<std::string> digests;
    for (const auto& cell : grid) {
      runtime::ThreadPool::Global().SetNumThreads(cell.threads);
      registry.Reset();
      core::LinkPredictionJob job;
      job.graph = &g;
      job.num_users = 40;
      job.kind = kind;
      job.model_config.embedding_dim = 8;
      job.model_config.time_dim = 8;
      job.model_config.num_neighbors = 4;
      job.model_config.num_layers = 1;
      job.model_config.num_heads = 2;
      job.train_config.max_epochs = 2;
      job.train_config.batch_size = 100;
      job.train_config.seed = 5;
      job.train_config.pipeline_depth = cell.depth;
      job.train_config.mrr_k = 8;
      const core::LinkPredictionResult result = core::RunLinkPrediction(job);
      ASSERT_EQ(result.status, models::ModelStatus::kOk);
      EXPECT_EQ(result.mrr_k, 8);
      EXPECT_GT(result.test_ranking[0].count, 0);
      // Ranking metrics sit inside [0, 1] with Hits@1 <= MRR <= Hits@10.
      EXPECT_GE(result.test_ranking[0].mrr, 0.0);
      EXPECT_LE(result.test_ranking[0].mrr, 1.0);
      EXPECT_LE(result.test_ranking[0].hits_at_1,
                result.test_ranking[0].mrr + 1e-12);
      EXPECT_LE(result.test_ranking[0].mrr,
                result.test_ranking[0].hits_at_10 + 1e-12);
      bits.push_back(BitsOf(result.test_ranking[0].mrr));
      bits.push_back(BitsOf(result.test_ranking[0].hits_at_10));
      bits.push_back(BitsOf(result.val_ranking.mrr));
      bits.push_back(BitsOf(result.test[0].auc));
      digests.push_back(registry.CountersDigest());
    }
    for (size_t i = kProbes; i < bits.size(); ++i) {
      EXPECT_EQ(bits[i], bits[i % kProbes]) << "probe " << i;
    }
    for (size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], digests[0]) << "grid cell " << i;
    }
  }
}

TEST_F(MrrEvaluatorTest, RankingOffByDefaultLeavesMetricsEmpty) {
  const TemporalGraph g = RankGraph();
  core::LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 40;
  job.kind = models::ModelKind::kJodie;
  job.model_config.embedding_dim = 8;
  job.model_config.time_dim = 8;
  job.train_config.max_epochs = 1;
  job.train_config.batch_size = 100;
  const core::LinkPredictionResult result = core::RunLinkPrediction(job);
  ASSERT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_EQ(result.mrr_k, 0);
  EXPECT_EQ(result.test_ranking[0].count, 0);
  EXPECT_EQ(result.val_ranking.count, 0);
}

}  // namespace
}  // namespace benchtemp
