// Tests of the fault-tolerant sweep runner (DESIGN.md "Failure model"):
// atomic checkpointing, NaN retry with LR backoff, job deadlines,
// crash isolation, manifest resume, and input validation. Fault injection
// drives every recovery path deterministically.

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "core/data_loader.h"
#include "core/trainer.h"
#include "datagen/csv.h"
#include "datagen/synthetic.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "robustness/checkpoint.h"
#include "robustness/lineage.h"
#include "robustness/sweep.h"
#include "runtime/thread_pool.h"
#include "tensor/modules.h"
#include "tensor/optimizer.h"
#include "tensor/random.h"
#include "tensor/serialize.h"

namespace benchtemp::robustness {
namespace {

using base::FaultInjector;
using base::FaultSite;
using base::FaultSiteName;
using base::FaultSpec;
using core::LinkPredictionJob;
using core::LinkPredictionResult;
using core::RunLinkPrediction;
using graph::TemporalGraph;
using models::ModelKind;
using tensor::Var;

/// Every test leaves the process-wide injector disarmed and restores the
/// thread count and metric registry.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
    FaultInjector::Global().DisarmAll();
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
  }
  int original_threads_ = 1;
};

TemporalGraph MakeLearnableGraph(uint64_t seed = 21) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 25;
  cfg.num_edges = 900;
  cfg.edge_reuse_prob = 0.7;
  cfg.affinity = 0.7;
  cfg.edge_feature_dim = 4;
  cfg.seed = seed;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

LinkPredictionJob SmallTgnJob(const TemporalGraph* g) {
  LinkPredictionJob job;
  job.graph = g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config.embedding_dim = 8;
  job.model_config.time_dim = 8;
  job.model_config.num_neighbors = 4;
  job.model_config.num_layers = 1;
  job.model_config.num_heads = 2;
  job.train_config.max_epochs = 4;
  job.train_config.batch_size = 100;
  job.train_config.learning_rate = 1e-3f;
  job.train_config.seed = 5;
  return job;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string TempPath(const std::string& name) {
  return "/tmp/benchtemp_robustness_" + name;
}

// ---------------------------------------------------------------------------
// Atomic checkpoint writes

TEST_F(RobustnessTest, AtomicWriteSurvivesCrashInRenameWindow) {
  const std::string path = TempPath("atomic.bin");
  ASSERT_TRUE(
      io::AtomicReplace(path, "generation-1", io::FileKind::kCheckpoint));

  // Crash between temp-file write and rename: the committed file must keep
  // its old contents.
  FaultSpec spec;
  spec.at_step = 0;
  FaultInjector::Global().Arm(FaultSite::kCheckpointRename, spec);
  EXPECT_FALSE(
      io::AtomicReplace(path, "generation-2-torn", io::FileKind::kCheckpoint));
  std::string contents;
  ASSERT_TRUE(io::ReadFileBytes(path, &contents));
  EXPECT_EQ(contents, "generation-1");

  // Once the fault passes, the next commit replaces the file whole.
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(
      io::AtomicReplace(path, "generation-3", io::FileKind::kCheckpoint));
  ASSERT_TRUE(io::ReadFileBytes(path, &contents));
  EXPECT_EQ(contents, "generation-3");
  unlink(path.c_str());
  unlink((path + ".tmp").c_str());
}

TEST_F(RobustnessTest, JobCheckpointRoundTrips) {
  JobCheckpoint ckpt;
  ckpt.next_epoch = 3;
  ckpt.epochs_run = 3;
  ckpt.nan_retries = 1;
  ckpt.learning_rate = 5e-4f;
  ckpt.total_epoch_seconds = 12.5;
  ckpt.seed = 42;
  ckpt.monitor = {0.91, 2, 3, 1};
  ckpt.val_auc = 0.91;
  ckpt.val_ap = 0.88;
  ckpt.val_count = 135;
  ckpt.model_rng = "model rng state";
  ckpt.sampler_rng = "sampler rng state";
  ckpt.params = std::string("param\0blob", 10);
  ckpt.adam = "adam blob";
  ckpt.best_params = "";

  JobCheckpoint loaded;
  ASSERT_TRUE(ParseJobCheckpoint(SerializeJobCheckpoint(ckpt), &loaded));
  EXPECT_EQ(loaded.next_epoch, 3);
  EXPECT_EQ(loaded.nan_retries, 1);
  EXPECT_FLOAT_EQ(loaded.learning_rate, 5e-4f);
  EXPECT_DOUBLE_EQ(loaded.total_epoch_seconds, 12.5);
  EXPECT_EQ(loaded.seed, 42u);
  EXPECT_DOUBLE_EQ(loaded.monitor.best_metric, 0.91);
  EXPECT_EQ(loaded.monitor.best_epoch, 2);
  EXPECT_EQ(loaded.val_count, 135);
  EXPECT_EQ(loaded.params, ckpt.params);
  EXPECT_EQ(loaded.best_params, "");
}

TEST_F(RobustnessTest, CorruptAndTruncatedCheckpointsRejected) {
  JobCheckpoint ckpt;
  ckpt.params = "payload";
  const std::string bytes = SerializeJobCheckpoint(ckpt);
  JobCheckpoint out;

  // Flip one payload byte: checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 1);
  EXPECT_FALSE(ParseJobCheckpoint(flipped, &out));

  // Truncate: checksum (and sections) incomplete.
  EXPECT_FALSE(ParseJobCheckpoint(bytes.substr(0, 10), &out));
}

// ---------------------------------------------------------------------------
// Optimizer / RNG state round trips

TEST_F(RobustnessTest, AdamSnapshotReproducesUpdateTrajectory) {
  tensor::Rng rng(7);
  tensor::Linear layer(6, 4, rng);
  tensor::Adam opt(layer.Parameters(), 1e-2f);

  auto step = [&](float scale) {
    opt.ZeroGrad();
    for (const Var& p : layer.Parameters()) {
      p->grad = tensor::Tensor(p->value.shape());
      for (int64_t i = 0; i < p->grad.size(); ++i) {
        p->grad.at(i) = scale * static_cast<float>(i % 5 - 2);
      }
    }
    opt.Step();
  };
  step(1.0f);
  step(0.5f);

  // Branch point: snapshot, advance, restore, re-advance — both branches
  // must produce identical parameters (moments and step clock included).
  const std::string params_at_branch =
      tensor::SnapshotParameters(layer.Parameters());
  const std::string adam_at_branch = opt.SnapshotState();
  EXPECT_EQ(opt.step_count(), 2);

  step(2.0f);
  std::vector<float> branch_a;
  for (const Var& p : layer.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      branch_a.push_back(p->value.at(i));
    }
  }

  ASSERT_TRUE(tensor::RestoreParameters(params_at_branch, layer.Parameters()));
  ASSERT_TRUE(opt.RestoreState(adam_at_branch));
  EXPECT_EQ(opt.step_count(), 2);
  step(2.0f);
  size_t cursor = 0;
  for (const Var& p : layer.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      EXPECT_FLOAT_EQ(p->value.at(i), branch_a[cursor++]);
    }
  }
}

TEST_F(RobustnessTest, RngStateRoundTripsExactly) {
  tensor::Rng rng(123);
  (void)rng.UniformInt(1000);
  const std::string state = rng.SaveState();
  const int64_t a = rng.UniformInt(1 << 30);
  const int64_t b = rng.UniformInt(1 << 30);
  ASSERT_TRUE(rng.LoadState(state));
  EXPECT_EQ(rng.UniformInt(1 << 30), a);
  EXPECT_EQ(rng.UniformInt(1 << 30), b);
  EXPECT_FALSE(rng.LoadState("not an engine state ###"));
}

// Pins the bytes of the three checkpoint formats (BTCP parameters, BTAD
// Adam state, BTJC job container) for a fixed Linear after three fixed Adam
// steps. Parameters are set by formula rather than drawn, so the pin does
// not depend on the standard library's normal distribution.
TEST_F(RobustnessTest, CheckpointFormatsGoldenBytes) {
  tensor::Rng rng(1);
  tensor::Linear layer(3, 2, rng);
  for (const Var& p : layer.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      p->value.at(i) = 0.125f * static_cast<float>(i % 7) - 0.25f;
    }
  }
  tensor::Adam opt(layer.Parameters(), 1e-2f);
  const Var x = tensor::Constant(tensor::Tensor::FromVector(
      {2, 3}, {0.5f, -1.0f, 0.25f, 1.5f, 0.75f, -0.5f}));
  for (int step = 0; step < 3; ++step) {
    const Var y = layer.Forward({x});
    opt.ZeroGrad();
    tensor::Backward(tensor::Sum(tensor::Mul(y, y)));
    opt.Step();
  }

  JobCheckpoint ckpt;
  ckpt.next_epoch = 3;
  ckpt.epochs_run = 3;
  ckpt.nan_retries = 1;
  ckpt.learning_rate = opt.learning_rate();
  ckpt.total_epoch_seconds = 1.25;
  ckpt.retried_epoch_seconds = 0.5;
  ckpt.seed = 42;
  ckpt.monitor = {0.75, 2, 3, 1};
  ckpt.val_auc = 0.75;
  ckpt.val_ap = 0.625;
  ckpt.val_count = 96;
  ckpt.model_rng = "model rng";
  ckpt.sampler_rng = "sampler rng";
  ckpt.params = tensor::SnapshotParameters(layer.Parameters());
  ckpt.adam = opt.SnapshotState();
  ckpt.best_params = ckpt.params;

  EXPECT_EQ(Fnv1a64(ckpt.params), 0x0ef01c72207d5fb6ull);
  EXPECT_EQ(Fnv1a64(ckpt.adam), 0xca8c4b5b5ff9b326ull);
  EXPECT_EQ(Fnv1a64(SerializeJobCheckpoint(ckpt)), 0x661b1e1cc0e104b8ull);
}

// ---------------------------------------------------------------------------
// NaN sentinels

TEST_F(RobustnessTest, InjectedNanRecoversWithRetry) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job = SmallTgnJob(&g);

  // Poison one loss mid-epoch: the trainer must roll back, back off the
  // LR, retry, and still finish the job cleanly.
  FaultSpec spec;
  spec.at_step = 3;
  FaultInjector::Global().Arm(FaultSite::kNanLoss, spec);
  const LinkPredictionResult result = RunLinkPrediction(job);
  EXPECT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_EQ(result.annotation, "");
  EXPECT_EQ(result.nan_retries, 1);
  EXPECT_GT(result.test[0].auc, 0.55);
  EXPECT_EQ(FaultInjector::Global().fire_count(FaultSite::kNanLoss), 1);
}

TEST_F(RobustnessTest, ExhaustedRetryBudgetAnnotatesX) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job = SmallTgnJob(&g);

  // Every step diverges: after the retry budget of 3 is spent the job
  // reports the paper's non-convergence marker instead of aborting.
  FaultSpec spec;
  spec.at_step = 0;
  spec.count = 1 << 20;
  FaultInjector::Global().Arm(FaultSite::kNanLoss, spec);
  const LinkPredictionResult result = RunLinkPrediction(job);
  EXPECT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_EQ(result.annotation, "x");
  EXPECT_EQ(result.nan_retries, 4);       // budget 3 + the failing attempt
  EXPECT_EQ(result.test[0].count, 0);     // test pass skipped
}

TEST_F(RobustnessTest, FaultSpecParsingAndNames) {
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_TRUE(injector.Configure("nan_loss@40;stall_batch@5:3:200"));
  EXPECT_FALSE(injector.Configure("unknown_site@1"));
  EXPECT_FALSE(injector.Configure("nan_loss"));
  EXPECT_EQ(injector.stall_ms(), 200);
  EXPECT_STREQ(FaultSiteName(FaultSite::kNanLoss), "nan_loss");
  EXPECT_STREQ(FaultSiteName(FaultSite::kCheckpointRename),
               "crash_checkpoint");
}

// ---------------------------------------------------------------------------
// Job deadline

TEST_F(RobustnessTest, PassedDeadlineWindsJobDownWithX) {
  TemporalGraph g = MakeLearnableGraph();
  LinkPredictionJob job = SmallTgnJob(&g);
  job.train_config.deadline = obs::NowSeconds();  // passed by the first check
  // With max_epochs = 0 no training epoch checks the deadline, so the test
  // pass is the first place to see it: its scores are incomplete and must
  // not be reported.
  for (int max_epochs : {4, 0}) {
    job.train_config.max_epochs = max_epochs;
    const LinkPredictionResult result = RunLinkPrediction(job);
    EXPECT_EQ(result.annotation, "x") << max_epochs;
    EXPECT_EQ(result.test[0].count, 0) << max_epochs;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume of one training job

TEST_F(RobustnessTest, ResumedJobMatchesUninterruptedRunExactly) {
  TemporalGraph g = MakeLearnableGraph();
  const std::string path = TempPath("resume.ckpt");
  CheckpointLineage(path, 3).Remove();

  // Reference: the uninterrupted run.
  LinkPredictionJob job = SmallTgnJob(&g);
  const LinkPredictionResult reference = RunLinkPrediction(job);
  ASSERT_EQ(reference.status, models::ModelStatus::kOk);

  // Crash the job mid-epoch after at least one checkpoint was committed
  // (batch_size 100 -> ~6 train batches per epoch; step 14 is in epoch 3).
  job.train_config.checkpoint_path = path;
  FaultSpec spec;
  spec.at_step = 14;
  FaultInjector::Global().Arm(FaultSite::kThrowForward, spec);
  EXPECT_THROW(RunLinkPrediction(job), std::runtime_error);
  FaultInjector::Global().DisarmAll();
  {
    JobCheckpoint peek;
    ASSERT_TRUE(CheckpointLineage(path, 3).Load(&peek).ok)
        << "no checkpoint generation survived the crash";
  }

  // Resume: same job, checkpoint present — the result must be bit-identical
  // to the run that never crashed.
  const LinkPredictionResult resumed = RunLinkPrediction(job);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.status, models::ModelStatus::kOk);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(BitsOf(resumed.test[s].auc), BitsOf(reference.test[s].auc));
    EXPECT_EQ(BitsOf(resumed.test[s].ap), BitsOf(reference.test[s].ap));
  }
  EXPECT_EQ(BitsOf(resumed.val_transductive.auc),
            BitsOf(reference.val_transductive.auc));

  // A completed job retires its whole lineage (generations + manifest).
  JobCheckpoint peek;
  const LineageLoadResult gone = CheckpointLineage(path, 3).Load(&peek);
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.error, "no checkpoint");
  std::string unused;
  EXPECT_FALSE(io::ReadFileBytes(path + ".lineage", &unused));
}

TEST_F(RobustnessTest, PipelinedKillAndResumeMatchesReference) {
  // The BENCHTEMP_PIPELINE=2 shape of the same contract: prefetch must not
  // change what gets checkpointed or how a resumed run replays.
  TemporalGraph g = MakeLearnableGraph();
  const std::string path = TempPath("resume_pipe.ckpt");
  CheckpointLineage(path, 3).Remove();

  LinkPredictionJob job = SmallTgnJob(&g);
  job.train_config.pipeline_depth = 2;
  const LinkPredictionResult reference = RunLinkPrediction(job);
  ASSERT_EQ(reference.status, models::ModelStatus::kOk);

  job.train_config.checkpoint_path = path;
  FaultSpec spec;
  spec.at_step = 14;
  FaultInjector::Global().Arm(FaultSite::kThrowForward, spec);
  EXPECT_THROW(RunLinkPrediction(job), std::runtime_error);
  FaultInjector::Global().DisarmAll();

  const LinkPredictionResult resumed = RunLinkPrediction(job);
  EXPECT_TRUE(resumed.resumed);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(BitsOf(resumed.test[s].auc), BitsOf(reference.test[s].auc));
    EXPECT_EQ(BitsOf(resumed.test[s].ap), BitsOf(reference.test[s].ap));
  }
  CheckpointLineage(path, 3).Remove();
}

TEST_F(RobustnessTest, CheckpointWithWrongSeedIgnored) {
  TemporalGraph g = MakeLearnableGraph();
  const std::string path = TempPath("wrong_seed.ckpt");
  CheckpointLineage(path, 3).Remove();

  LinkPredictionJob job = SmallTgnJob(&g);
  job.train_config.checkpoint_path = path;
  FaultSpec spec;
  spec.at_step = 14;
  FaultInjector::Global().Arm(FaultSite::kThrowForward, spec);
  EXPECT_THROW(RunLinkPrediction(job), std::runtime_error);
  FaultInjector::Global().DisarmAll();

  // A different seed is a different job: the stale checkpoint must not be
  // applied to it.
  job.train_config.seed = 6;
  const LinkPredictionResult result = RunLinkPrediction(job);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.status, models::ModelStatus::kOk);
  CheckpointLineage(path, 3).Remove();
}

// ---------------------------------------------------------------------------
// Node-classification pretraining runs through the same epoch driver

core::NodeClassificationJob SmallNcJob(const TemporalGraph* g) {
  core::NodeClassificationJob job;
  job.graph = g;
  job.num_users = 60;
  job.kind = ModelKind::kTgn;
  job.model_config = SmallTgnJob(g).model_config;
  job.train_config = SmallTgnJob(g).train_config;
  job.pretrain_epochs = 3;
  job.decoder_epochs = 40;
  return job;
}

TemporalGraph MakeLabeledGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 25;
  cfg.num_edges = 900;
  cfg.edge_reuse_prob = 0.7;
  cfg.affinity = 0.7;
  cfg.edge_feature_dim = 4;
  cfg.label_classes = 2;
  cfg.label_positive_rate = 0.15;
  cfg.seed = 33;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

TEST_F(RobustnessTest, NodeClassificationResumeMatchesUninterruptedRun) {
  TemporalGraph g = MakeLabeledGraph();
  const std::string path = TempPath("nc_resume.ckpt");
  CheckpointLineage(path, 3).Remove();

  core::NodeClassificationJob job = SmallNcJob(&g);
  const core::NodeClassificationResult reference =
      core::RunNodeClassification(job);
  ASSERT_EQ(reference.annotation, "");
  EXPECT_FALSE(reference.resumed);

  // Crash mid-pretraining after at least one epoch was committed (about 6
  // pretraining batches per epoch; step 10 is in the second epoch).
  job.train_config.checkpoint_path = path;
  FaultSpec spec;
  spec.at_step = 10;
  FaultInjector::Global().Arm(FaultSite::kThrowForward, spec);
  EXPECT_THROW(core::RunNodeClassification(job), std::runtime_error);
  FaultInjector::Global().DisarmAll();
  {
    JobCheckpoint peek;
    ASSERT_TRUE(CheckpointLineage(path, 3).Load(&peek).ok)
        << "no checkpoint generation survived the crash";
  }

  const core::NodeClassificationResult resumed =
      core::RunNodeClassification(job);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.annotation, "");
  // Bitwise: the resumed pretraining replays the uninterrupted trajectory.
  EXPECT_EQ(BitsOf(resumed.test_auc), BitsOf(reference.test_auc));
  EXPECT_EQ(BitsOf(resumed.accuracy), BitsOf(reference.accuracy));
  EXPECT_EQ(BitsOf(resumed.f1_weighted), BitsOf(reference.f1_weighted));

  // A completed job retires its whole lineage (generations + manifest).
  JobCheckpoint peek;
  EXPECT_FALSE(CheckpointLineage(path, 3).Load(&peek).ok);
  std::string unused;
  EXPECT_FALSE(io::ReadFileBytes(path + ".lineage", &unused));
}

TEST_F(RobustnessTest, NodeClassificationPretrainNanRecovers) {
  TemporalGraph g = MakeLabeledGraph();
  core::NodeClassificationJob job = SmallNcJob(&g);

  // One poisoned pretraining loss: roll back, back off the LR, retry, and
  // go on to fit the decoder.
  FaultSpec spec;
  spec.at_step = 3;
  FaultInjector::Global().Arm(FaultSite::kNanLoss, spec);
  const core::NodeClassificationResult result =
      core::RunNodeClassification(job);
  EXPECT_EQ(FaultInjector::Global().fire_count(FaultSite::kNanLoss), 1);
  EXPECT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_EQ(result.annotation, "");
  EXPECT_EQ(result.nan_retries, 1);
  EXPECT_GT(result.accuracy, 0.5);
}

TEST_F(RobustnessTest, NodeClassificationDeadlineCutsPretraining) {
  TemporalGraph g = MakeLabeledGraph();
  core::NodeClassificationJob job = SmallNcJob(&g);
  // The first pretraining batch stalls past the deadline, so pretraining
  // stops within its first epoch and the decoder is never fitted.
  ASSERT_TRUE(FaultInjector::Global().Configure("stall_batch@0:1:300"));
  job.train_config.deadline = obs::NowSeconds() + 0.05;
  const core::NodeClassificationResult cut = core::RunNodeClassification(job);
  EXPECT_EQ(cut.annotation, "x");
  EXPECT_LE(cut.efficiency.pipeline_stats.batches, 1);
  EXPECT_EQ(cut.efficiency.epochs_run, 0);  // decoder epochs
  EXPECT_DOUBLE_EQ(cut.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(cut.f1_weighted, 0.0);
}

// ---------------------------------------------------------------------------
// Checkpoint lineage: retention, corruption fallback, orphan adoption

JobCheckpoint EpochCheckpoint(int epoch) {
  JobCheckpoint c;
  c.next_epoch = epoch;
  c.epochs_run = epoch;
  c.seed = 5;
  c.model_rng = "model rng";
  c.sampler_rng = "sampler rng";
  c.params = "params for epoch " + std::to_string(epoch);
  c.adam = "adam for epoch " + std::to_string(epoch);
  return c;
}

/// Flips one byte at `fraction` of the way through `path`.
void CorruptFileAt(const std::string& path, double fraction) {
  std::string bytes;
  ASSERT_TRUE(io::ReadFileBytes(path, &bytes));
  ASSERT_FALSE(bytes.empty());
  size_t off =
      static_cast<size_t>(fraction * static_cast<double>(bytes.size()));
  if (off >= bytes.size()) off = bytes.size() - 1;
  bytes[off] = static_cast<char>(bytes[off] ^ 0x20);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(RobustnessTest, LineageKeepsLastNGenerationsAndPrunes) {
  const std::string base = TempPath("lineage_prune.ckpt");
  CheckpointLineage lineage(base, 2);
  lineage.Remove();

  for (int epoch = 1; epoch <= 3; ++epoch) {
    int64_t bytes = 0;
    ASSERT_TRUE(lineage.Save(EpochCheckpoint(epoch), &bytes));
    EXPECT_GT(bytes, 0);
  }

  // Only the last two generations survive; the first was pruned from both
  // the manifest and the directory.
  const LineageInventory inventory = lineage.Inspect();
  EXPECT_TRUE(inventory.manifest_ok);
  ASSERT_EQ(inventory.generations.size(), 2u);
  EXPECT_EQ(inventory.generations[0].seq, 2u);
  EXPECT_EQ(inventory.generations[1].seq, 3u);
  for (const GenerationStatus& g : inventory.generations) {
    EXPECT_TRUE(g.listed);
    EXPECT_EQ(g.verdict, GenerationVerdict::kValid);
  }
  std::string unused;
  EXPECT_FALSE(io::ReadFileBytes(lineage.GenerationPath(1), &unused));

  JobCheckpoint loaded;
  const LineageLoadResult result = lineage.Load(&loaded);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.seq, 3u);
  EXPECT_EQ(result.fallbacks, 0);
  EXPECT_EQ(loaded.next_epoch, 3);

  ASSERT_TRUE(lineage.Remove());
  EXPECT_FALSE(lineage.Load(&loaded).ok);
  EXPECT_FALSE(io::ReadFileBytes(lineage.manifest_path(), &unused));
}

TEST_F(RobustnessTest, LineageFallsBackAcrossEveryCorruptRegion) {
  // Corruption matrix: a flipped byte anywhere in the newest generation —
  // header/magic, the params blob, or the trailing checksum — must demote
  // it and load the previous generation instead of aborting the job.
  const double kRegions[] = {0.0, 0.35, 0.6, 0.999};
  for (const double region : kRegions) {
    const std::string base = TempPath("lineage_corrupt.ckpt");
    CheckpointLineage lineage(base, 3);
    lineage.Remove();
    ASSERT_TRUE(lineage.Save(EpochCheckpoint(1)));
    ASSERT_TRUE(lineage.Save(EpochCheckpoint(2)));

    CorruptFileAt(lineage.GenerationPath(2), region);

    JobCheckpoint loaded;
    const LineageLoadResult result = lineage.Load(&loaded);
    ASSERT_TRUE(result.ok) << "region " << region << ": " << result.error;
    EXPECT_EQ(result.seq, 1u) << "region " << region;
    EXPECT_EQ(result.fallbacks, 1) << "region " << region;
    EXPECT_EQ(loaded.next_epoch, 1) << "region " << region;
    lineage.Remove();
  }
}

TEST_F(RobustnessTest, LineageAllGenerationsCorruptFailsStructured) {
  const std::string base = TempPath("lineage_dead.ckpt");
  CheckpointLineage lineage(base, 3);
  lineage.Remove();
  ASSERT_TRUE(lineage.Save(EpochCheckpoint(1)));
  ASSERT_TRUE(lineage.Save(EpochCheckpoint(2)));
  CorruptFileAt(lineage.GenerationPath(1), 0.5);
  CorruptFileAt(lineage.GenerationPath(2), 0.5);

  JobCheckpoint loaded;
  const LineageLoadResult result = lineage.Load(&loaded);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fallbacks, 2);
  // The error names every rejected generation with its reason.
  EXPECT_NE(result.error.find("g1"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("g2"), std::string::npos) << result.error;
  lineage.Remove();
}

TEST_F(RobustnessTest, LineageSurvivesManifestLossAndAdoptsOrphans) {
  const std::string base = TempPath("lineage_orphan.ckpt");
  CheckpointLineage lineage(base, 3);
  lineage.Remove();
  ASSERT_TRUE(lineage.Save(EpochCheckpoint(1)));
  ASSERT_TRUE(lineage.Save(EpochCheckpoint(2)));

  // A crash between the generation commit and the manifest commit leaves an
  // orphan generation file the manifest does not know about. It is newer,
  // valid, and must win.
  ASSERT_TRUE(io::AtomicReplace(lineage.GenerationPath(7),
                                SerializeJobCheckpoint(EpochCheckpoint(7)),
                                io::FileKind::kCheckpoint));
  JobCheckpoint loaded;
  LineageLoadResult result = lineage.Load(&loaded);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.seq, 7u);
  EXPECT_EQ(loaded.next_epoch, 7);

  // The manifest itself is not a single point of failure: corrupt it, then
  // delete it — the generation files, judged as orphans, answer either way.
  {
    std::ofstream out(lineage.manifest_path(), std::ios::trunc);
    out << "not a manifest\n";
  }
  result = lineage.Load(&loaded);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.seq, 7u);

  unlink(lineage.manifest_path().c_str());
  result = lineage.Load(&loaded);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.seq, 7u);

  // The next Save must not reuse or shadow the orphan's sequence number.
  ASSERT_TRUE(lineage.Save(EpochCheckpoint(8)));
  result = lineage.Load(&loaded);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.seq, 8u);
  lineage.Remove();
}

// ---------------------------------------------------------------------------
// Sweep runner: crash isolation, job deadline, manifest resume

std::vector<core::LeaderboardRecord> OneRecord(const std::string& key,
                                               double mean,
                                               const std::string& annotation =
                                                   "") {
  core::LeaderboardRecord r;
  r.model = "M";
  r.dataset = key;
  r.task = "link_prediction";
  r.setting = "Transductive";
  r.metric = "AUC";
  r.mean = mean;
  r.annotation = annotation;
  return {r};
}

SweepJob StubJob(const std::string& key, double mean) {
  SweepJob job;
  job.key = key;
  job.model = "M";
  job.dataset = key;
  job.settings = {"Transductive"};
  job.metrics = {"AUC"};
  job.run = [key, mean](double) { return OneRecord(key, mean); };
  return job;
}

TEST_F(RobustnessTest, SweepIsolatesCrashedJobs) {
  std::vector<SweepJob> jobs;
  jobs.push_back(StubJob("A", 0.9));
  SweepJob bomb = StubJob("B", 0.0);
  bomb.run = [](double) -> std::vector<core::LeaderboardRecord> {
    throw std::runtime_error("injected fault: forward pass");
  };
  jobs.push_back(bomb);
  jobs.push_back(StubJob("C", 0.8));

  runtime::ThreadPool::Global().SetNumThreads(1);
  core::Leaderboard board;
  const SweepReport report = RunSweep(jobs, SweepOptions(), &board);
  EXPECT_EQ(report.ran, 3);
  EXPECT_EQ(report.failed, 1);
  ASSERT_EQ(board.records().size(), 3u);
  EXPECT_EQ(board.records()[0].dataset, "A");
  EXPECT_EQ(board.records()[1].annotation,
            "FAILED(injected fault: forward pass)");
  EXPECT_EQ(board.records()[2].dataset, "C");  // sweep continued past crash
}

TEST_F(RobustnessTest, SweepDeadlineCancelsStalledJob) {
  std::vector<SweepJob> jobs;
  SweepJob stalled = StubJob("S", 0.0);
  stalled.run = [](double deadline) {
    const double give_up = obs::NowSeconds() + 10.0;
    while (obs::NowSeconds() < give_up) {
      if (obs::DeadlinePassed(deadline)) {
        return OneRecord("S", 0.5, "x");  // cooperative wind-down
      }
    }
    return OneRecord("S", 0.5);
  };
  jobs.push_back(stalled);
  jobs.push_back(StubJob("A", 0.9));

  runtime::ThreadPool::Global().SetNumThreads(1);
  obs::MetricRegistry::OverrideEnabledForTest(1);
  core::Leaderboard board;
  SweepOptions options;
  options.job_deadline_seconds = 0.05;
  RunSweep(jobs, options, &board);
  // Only the job that ran past its deadline counts as a fire.
  EXPECT_EQ(obs::MetricRegistry::Global().value(obs::Counter::kWatchdogFires),
            1);
  ASSERT_EQ(board.records().size(), 2u);
  EXPECT_EQ(board.records()[0].annotation, "x");
  EXPECT_EQ(board.records()[1].annotation, "");
}

TEST_F(RobustnessTest, ManifestResumeSkipsCompletedAndMatchesFreshCsv) {
  const std::string path = TempPath("manifest.txt");
  unlink(path.c_str());
  std::vector<SweepJob> jobs;
  jobs.push_back(StubJob("A", 0.875));
  jobs.push_back(StubJob("B", 0.75));
  jobs.push_back(StubJob("C", 0.625));

  // Fresh stateless run = ground truth CSV.
  core::Leaderboard fresh;
  RunSweep(jobs, SweepOptions(), &fresh);

  // Interrupted run: only A and B commit (simulating a kill before C).
  runtime::ThreadPool::Global().SetNumThreads(1);
  SweepOptions options;
  options.manifest_path = path;
  {
    core::Leaderboard partial;
    std::vector<SweepJob> first_two(jobs.begin(), jobs.begin() + 2);
    RunSweep(first_two, options, &partial);
  }

  // Resume over the full job list: A and B replay from the manifest, C runs.
  core::Leaderboard resumed;
  const SweepReport report = RunSweep(jobs, options, &resumed);
  EXPECT_EQ(report.skipped, 2);
  EXPECT_EQ(report.ran, 1);
  EXPECT_EQ(resumed.ToCsv(), fresh.ToCsv());
  unlink(path.c_str());
}

TEST_F(RobustnessTest, TornManifestTailIsDiscarded) {
  const std::string path = TempPath("torn.txt");
  {
    std::ofstream out(path);
    out << "rec|A|M|A|link_prediction|Transductive|AUC|0.875|0|\n";
    out << "done|A|1|0|\n";
    // Torn tail: rec without its done marker, then a half-written line.
    out << "rec|B|M|B|link_prediction|Transductive|AUC|0.75|0|\n";
    out << "rec|B|M|B|link_predi";
  }
  SweepManifest manifest(path);
  ASSERT_TRUE(manifest.Load());
  EXPECT_EQ(manifest.Find("B"), nullptr);  // torn job reruns
  const SweepJobResult* a = manifest.Find("A");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->records.size(), 1u);
  EXPECT_DOUBLE_EQ(a->records[0].mean, 0.875);
  unlink(path.c_str());
}

TEST_F(RobustnessTest, ManifestRoundTripsFloatsExactly) {
  const std::string path = TempPath("floats.txt");
  unlink(path.c_str());
  SweepManifest manifest(path);
  SweepJobResult result;
  result.key = "K";
  result.records = OneRecord("K", 0.123456789012345678);
  result.records[0].std = 1e-17;
  ASSERT_TRUE(manifest.Commit(result));

  SweepManifest reloaded(path);
  ASSERT_TRUE(reloaded.Load());
  const SweepJobResult* found = reloaded.Find("K");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->records[0].mean, 0.123456789012345678);
  EXPECT_DOUBLE_EQ(found->records[0].std, 1e-17);
  unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Input validation

TEST_F(RobustnessTest, ValidateGraphCatchesBadInputs) {
  TemporalGraph good = MakeLearnableGraph();
  EXPECT_EQ(core::ValidateGraph(good), "");

  TemporalGraph unsorted;
  unsorted.AddInteraction(0, 1, 5.0, 0);
  unsorted.AddInteraction(1, 2, 3.0, 0);  // goes back in time
  EXPECT_NE(core::ValidateGraph(unsorted).find("chronological"),
            std::string::npos);

  TemporalGraph empty;
  EXPECT_NE(core::ValidateGraph(empty), "");

  TemporalGraph nan_features = MakeLearnableGraph();
  nan_features.mutable_node_features().at(0, 0) =
      std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(core::ValidateGraph(nan_features).find("node features"),
            std::string::npos);
}

// Every damaged input is rejected with the exact `file:line: reason` an
// operator needs to find it.
TEST_F(RobustnessTest, CsvLoaderPinsEveryDamagedInput) {
  const std::string path = TempPath("damaged.csv");
  struct Case {
    const char* body;
    const char* where_and_why;  // LoadError::str() after the file name
  };
  const Case kCases[] = {
      {"", ": empty file"},
      {"src,dst\n", ":1: header needs at least src,dst,ts,label"},
      {"src,dst,ts,label\n0,1,1.0\n", ":2: wrong column count"},
      {"src,dst,ts,label\n0,1x,1.0,0\n", ":2: malformed node id"},
      {"src,dst,ts,label\n0,-3,1.0,0\n", ":2: negative node id"},
      {"src,dst,ts,label\n0,1,nan,0\n",
       ":2: malformed or non-finite timestamp"},
      {"src,dst,ts,label\n0,1,1.0,zero\n", ":2: malformed label"},
      {"src,dst,ts,label,f0\n0,1,1.0,0,2.5\n0,1,2.0,0,inf\n",
       ":3: malformed or non-finite feature"},
      // A truncated download: the torn final row parses, and still fails.
      {"src,dst,ts,label\n0,1,1.0,0\n1,2,2.0,0",
       ":3: truncated file (no trailing newline)"},
      {"src,dst,ts,label", ":1: truncated file (no trailing newline)"},
  };
  for (const Case& c : kCases) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.body;
    }
    TemporalGraph g;
    datagen::LoadError error;
    EXPECT_FALSE(datagen::LoadCsv(path, &g, &error)) << c.where_and_why;
    EXPECT_EQ(error.str(), path + c.where_and_why);
  }
  unlink(path.c_str());
}

// Duplicate edges and self-loops are valid temporal-graph events (the
// catalog datasets contain both kinds of edge reuse); out-of-order rows
// are re-sorted, and the result passes the split contract.
TEST_F(RobustnessTest, CsvLoaderKeepsEdgeReuseAndSortsByTime) {
  const std::string path = TempPath("reuse.csv");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "src,dst,ts,label\n"
           "0,1,2.0,0\n"
           "0,1,2.0,0\n"  // duplicate
           "3,3,1.0,0\n"  // self-loop, earlier than the rows above
           "1,2,0.5,0\n";
  }
  TemporalGraph g;
  datagen::LoadError error;
  ASSERT_TRUE(datagen::LoadCsv(path, &g, &error)) << error.str();
  unlink(path.c_str());
  ASSERT_EQ(g.num_events(), 4);
  const double ts[] = {0.5, 1.0, 2.0, 2.0};
  for (int64_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(g.event(i).ts, ts[i]);
  EXPECT_EQ(g.event(1).src, 3);
  EXPECT_EQ(g.event(1).dst, 3);
  EXPECT_EQ(core::ValidateGraph(g), "");
}

}  // namespace
}  // namespace benchtemp::robustness
