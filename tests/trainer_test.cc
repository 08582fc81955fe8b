#include "core/trainer.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "datagen/synthetic.h"
#include "runtime/thread_pool.h"

namespace benchtemp::core {
namespace {

using graph::TemporalGraph;
using models::ModelKind;

/// A small, strongly structured dataset every reasonable model learns on.
TemporalGraph MakeLearnableGraph(uint64_t seed = 21) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 25;
  cfg.num_edges = 900;
  cfg.edge_reuse_prob = 0.7;
  cfg.affinity = 0.7;
  cfg.edge_feature_dim = 4;
  cfg.label_classes = 2;
  cfg.label_positive_rate = 0.15;
  cfg.seed = seed;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

models::ModelConfig SmallModelConfig() {
  models::ModelConfig config;
  config.embedding_dim = 8;
  config.time_dim = 8;
  config.num_neighbors = 4;
  config.num_layers = 1;
  config.num_heads = 2;
  config.num_walks = 2;
  config.walk_length = 2;
  return config;
}

TrainConfig QuickTrainConfig() {
  TrainConfig tc;
  tc.max_epochs = 4;
  tc.batch_size = 100;
  tc.learning_rate = 1e-3f;
  return tc;
}

TEST(TrainerTest, MakeBatchesPartitionsEvents) {
  TemporalGraph g = MakeLearnableGraph();
  std::vector<int64_t> events;
  for (int64_t i = 0; i < 250; ++i) events.push_back(i);
  const auto batches = MakeBatches(g, events, 100);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 100);
  EXPECT_EQ(batches[2].size(), 50);
  EXPECT_EQ(batches[0].srcs[0], g.event(0).src);
}

TEST(TrainerTest, TgnBeatsChanceOnLinkPrediction) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  const LinkPredictionResult result = RunLinkPrediction(job);
  EXPECT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_GT(result.test[0].auc, 0.60);  // transductive, well above chance
  EXPECT_GT(result.test[0].ap, 0.55);
  EXPECT_GT(result.efficiency.seconds_per_epoch, 0.0);
  EXPECT_GT(result.efficiency.epochs_run, 0);
  EXPECT_GT(result.efficiency.max_rss_gb, 0.0);
}

TEST(TrainerTest, EdgeBankRunsWithoutTraining) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kEdgeBank;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  const LinkPredictionResult result = RunLinkPrediction(job);
  EXPECT_EQ(result.efficiency.epochs_run, 1);  // heuristic: single pass
  // High reuse dataset: memorization is strong transductively.
  EXPECT_GT(result.test[0].auc, 0.70);
}

TEST(TrainerTest, AllSettingsPopulated) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kJodie;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.train_config.max_epochs = 2;
  const LinkPredictionResult result = RunLinkPrediction(job);
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(result.test[s].auc, 0.0);
    EXPECT_LE(result.test[s].auc, 1.0);
  }
  // Inductive sets are non-empty on this dataset.
  EXPECT_GT(result.test[1].count, 0);
  EXPECT_EQ(result.test[1].count,
            result.test[2].count + result.test[3].count);
}

TEST(TrainerTest, DeterministicGivenSeed) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kJodie;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.train_config.max_epochs = 2;
  job.train_config.seed = 5;
  const LinkPredictionResult a = RunLinkPrediction(job);
  const LinkPredictionResult b = RunLinkPrediction(job);
  EXPECT_EQ(BitsOf(a.test[0].auc), BitsOf(b.test[0].auc));
  EXPECT_EQ(BitsOf(a.test[3].ap), BitsOf(b.test[3].ap));
}

TEST(TrainerTest, SeedChangesResult) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kJodie;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.train_config.max_epochs = 2;
  job.train_config.seed = 5;
  const LinkPredictionResult a = RunLinkPrediction(job);
  job.train_config.seed = 6;
  const LinkPredictionResult b = RunLinkPrediction(job);
  EXPECT_NE(a.test[0].auc, b.test[0].auc);
}

TEST(TrainerTest, HistoricalNegativesLowerEdgeBank) {
  // The Appendix J effect: memorization-friendly random negatives vs.
  // historical negatives that EdgeBank cannot separate at all.
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kEdgeBank;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  const LinkPredictionResult random_neg = RunLinkPrediction(job);
  job.train_config.negative_sampling = NegativeSampling::kHistorical;
  const LinkPredictionResult hist_neg = RunLinkPrediction(job);
  EXPECT_LT(hist_neg.test[0].auc, random_neg.test[0].auc - 0.05);
}

TEST(TrainerTest, TgatTimeWindowProducesStarAnnotation) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 0;
  cfg.num_edges = 800;
  cfg.time_granularity = 8;  // extremely coarse
  cfg.time_span = 8.0;
  cfg.seed = 9;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  LinkPredictionJob job;
  job.graph = &g;
  job.kind = ModelKind::kTgat;
  job.model_config = SmallModelConfig();
  job.model_config.tgat_time_window = 0.25;  // below the tick size
  job.train_config = QuickTrainConfig();
  const LinkPredictionResult result = RunLinkPrediction(job);
  EXPECT_EQ(result.status, models::ModelStatus::kRuntimeError);
  EXPECT_EQ(result.annotation, "*");
}

TEST(TrainerTest, NodeClassificationRunsAndBeatsChance) {
  TemporalGraph g = MakeLearnableGraph(33);
  NodeClassificationJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.train_config.seed = 1;
  job.pretrain_epochs = 2;
  job.decoder_epochs = 80;
  const NodeClassificationResult result = RunNodeClassification(job);
  EXPECT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_GT(result.test_auc, 0.55);
  EXPECT_GT(result.accuracy, 0.5);
  EXPECT_GT(result.f1_weighted, 0.0);
}

TEST(TrainerTest, NodeClassificationNanLossAnnotatesX) {
  TemporalGraph g = MakeLearnableGraph(33);
  NodeClassificationJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.pretrain_epochs = 2;
  job.decoder_epochs = 80;
  // Pretraining that keeps diverging past its retry budget must stop the
  // job before NaN embeddings reach the decoder: the paper's
  // non-convergence marker, no metrics.
  base::FaultSpec spec;
  spec.at_step = 2;
  spec.count = 1 << 20;
  base::FaultInjector::Global().Arm(base::FaultSite::kNanLoss, spec);
  const NodeClassificationResult result = RunNodeClassification(job);
  const int64_t fired =
      base::FaultInjector::Global().fire_count(base::FaultSite::kNanLoss);
  base::FaultInjector::Global().DisarmAll();
  EXPECT_EQ(result.annotation, "x");
  EXPECT_EQ(fired, 4);  // the first attempt and its three retries
  EXPECT_DOUBLE_EQ(result.test_auc, NodeClassificationResult().test_auc);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(result.f1_weighted, 0.0);
}

TEST(TrainerTest, NodeClassificationDecoderNanAnnotatesX) {
  TemporalGraph g = MakeLearnableGraph(33);
  NodeClassificationJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.pretrain_epochs = 0;
  job.decoder_epochs = 20;
  // Without pretraining the first nan_loss probe is the first decoder
  // step. Its sentinel stops the job: marked "x", no metrics from the
  // diverged decoder.
  base::FaultSpec spec;
  spec.at_step = 0;
  base::FaultInjector::Global().Arm(base::FaultSite::kNanLoss, spec);
  const NodeClassificationResult result = RunNodeClassification(job);
  const int64_t fired =
      base::FaultInjector::Global().fire_count(base::FaultSite::kNanLoss);
  base::FaultInjector::Global().DisarmAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(result.annotation, "x");
  EXPECT_FALSE(result.efficiency.converged);
  for (const double metric :
       {result.test_auc, result.accuracy, result.precision_weighted,
        result.recall_weighted, result.f1_weighted,
        result.efficiency.seconds_per_epoch,
        result.efficiency.train_events_per_second}) {
    EXPECT_TRUE(std::isfinite(metric));
  }
}

TEST(TrainerTest, NodeClassificationConvergedFollowsDecoderMonitor) {
  TemporalGraph g = MakeLearnableGraph(33);
  NodeClassificationJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.train_config.patience = 0;
  job.pretrain_epochs = 1;
  job.decoder_epochs = 4;
  // The decoder's monitor waits at least 8 epochs, so 4 decoder epochs
  // can never early-stop: the Epoch cell must not read "converged".
  const NodeClassificationResult result = RunNodeClassification(job);
  EXPECT_EQ(result.annotation, "");
  EXPECT_EQ(result.efficiency.epochs_run, 4);
  EXPECT_FALSE(result.efficiency.converged);
}

TEST(TrainerTest, NodeClassificationBitIdenticalAcrossPipelineDepth) {
  TemporalGraph g = MakeLearnableGraph(33);
  NodeClassificationJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.train_config.seed = 1;
  job.pretrain_epochs = 2;
  job.decoder_epochs = 20;
  runtime::ThreadPool& pool = runtime::ThreadPool::Global();
  const int original_threads = pool.num_threads();
  std::vector<NodeClassificationResult> results;
  for (int threads : {1, 4}) {
    pool.SetNumThreads(threads);
    for (int depth : {0, 2}) {
      job.train_config.pipeline_depth = depth;
      results.push_back(RunNodeClassification(job));
    }
  }
  pool.SetNumThreads(original_threads);
  for (const NodeClassificationResult& r : results) {
    EXPECT_EQ(r.annotation, "");
    // Bitwise, not approximate: prefetch and thread count change
    // scheduling, never results.
    EXPECT_EQ(BitsOf(r.test_auc), BitsOf(results[0].test_auc));
    EXPECT_EQ(BitsOf(r.accuracy), BitsOf(results[0].accuracy));
    EXPECT_EQ(BitsOf(r.f1_weighted), BitsOf(results[0].f1_weighted));
  }
}

TEST(TrainerTest, MultiClassNodeClassification) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 100;
  cfg.num_items = 0;
  cfg.num_edges = 900;
  cfg.label_classes = 4;
  cfg.label_positive_rate = 0.08;
  cfg.affinity = 0.8;
  cfg.seed = 12;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  NodeClassificationJob job;
  job.graph = &g;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallModelConfig();
  job.train_config = QuickTrainConfig();
  job.pretrain_epochs = 2;
  job.decoder_epochs = 80;
  const NodeClassificationResult result = RunNodeClassification(job);
  EXPECT_GT(result.accuracy, 0.0);
  EXPECT_LE(result.accuracy, 1.0);
  EXPECT_GT(result.precision_weighted, 0.0);
  EXPECT_GE(result.recall_weighted, result.accuracy - 1e-9);
}

}  // namespace
}  // namespace benchtemp::core
