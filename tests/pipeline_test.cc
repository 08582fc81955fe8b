// Tests for the pipelined trainer (src/pipeline): the bounded prefetch
// window's backpressure, the depth-is-invisible determinism contract
// (identical result bits and counter digests at any BENCHTEMP_PIPELINE
// depth), overlap accounting on a sampling-heavy workload, checkpoint /
// resume byte-identity with prefetch on, and the job deadline's authority
// over a stall injected into the prefetch stage.

#include "pipeline/pipeline.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace benchtemp {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Deterministic-duration busy work on the sanctioned clock (sleeping would
/// under-represent CPU contention between producer and consumer).
void BusyWait(double seconds) {
  const double until = obs::NowSeconds() + seconds;
  while (obs::NowSeconds() < until) {
  }
}

graph::TemporalGraph MatrixGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 400;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  graph::TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

core::LinkPredictionJob MatrixJob(const graph::TemporalGraph* g,
                                  models::ModelKind kind) {
  core::LinkPredictionJob job;
  job.graph = g;
  job.num_users = 40;
  job.kind = kind;
  job.model_config.embedding_dim = 8;
  job.model_config.time_dim = 8;
  job.model_config.num_neighbors = 4;
  job.model_config.num_layers = 1;
  job.model_config.num_heads = 2;
  job.model_config.num_walks = 2;
  job.model_config.walk_length = 2;
  job.train_config.max_epochs = 2;
  job.train_config.batch_size = 100;
  job.train_config.seed = 5;
  return job;
}

/// Restores the thread count, fault injector, and metric registry no
/// matter how a test exits.
class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
    base::FaultInjector::Global().DisarmAll();
  }
  void TearDown() override {
    base::FaultInjector::Global().DisarmAll();
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
  }
  int original_threads_ = 1;
};

// ---------------------------------------------------------------------------
// BENCHTEMP_PIPELINE parsing

TEST_F(PipelineTest, DepthFromEnvParsing) {
  const char* saved = std::getenv("BENCHTEMP_PIPELINE");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("BENCHTEMP_PIPELINE");
  EXPECT_EQ(pipeline::DepthFromEnv(), 2);  // default: double-buffer
  ::setenv("BENCHTEMP_PIPELINE", "", 1);
  EXPECT_EQ(pipeline::DepthFromEnv(), 2);
  ::setenv("BENCHTEMP_PIPELINE", "0", 1);
  EXPECT_EQ(pipeline::DepthFromEnv(), 0);  // synchronous
  ::setenv("BENCHTEMP_PIPELINE", "1", 1);
  EXPECT_EQ(pipeline::DepthFromEnv(), 1);
  ::setenv("BENCHTEMP_PIPELINE", "4", 1);
  EXPECT_EQ(pipeline::DepthFromEnv(), 4);
  ::setenv("BENCHTEMP_PIPELINE", "99", 1);
  EXPECT_EQ(pipeline::DepthFromEnv(), 8);  // clamped
  ::setenv("BENCHTEMP_PIPELINE", "-3", 1);
  EXPECT_EQ(pipeline::DepthFromEnv(), 0);
  // A value that is not an integer stops the run instead of quietly
  // running synchronously.
  for (const char* bad : {"two", "junk", "4x", " ", "99999999999"}) {
    ::setenv("BENCHTEMP_PIPELINE", bad, 1);
    EXPECT_DEATH(pipeline::DepthFromEnv(),
                 std::string("BENCHTEMP_PIPELINE=") + bad +
                     " is not an integer");
  }
  if (saved != nullptr) {
    ::setenv("BENCHTEMP_PIPELINE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("BENCHTEMP_PIPELINE");
  }
}

// ---------------------------------------------------------------------------
// Bounded window / backpressure

TEST_F(PipelineTest, BackpressureNeverRunsAheadOfDepth) {
  runtime::ThreadPool::Global().SetNumThreads(4);
  constexpr int kDepth = 3;
  constexpr int64_t kBatches = 32;
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> max_ahead{0};
  pipeline::BatchPrefetcher prefetcher(
      kBatches, kDepth,
      [&](int64_t index) {
        const int64_t ahead = index - delivered.load();
        int64_t prev = max_ahead.load();
        while (ahead > prev &&
               !max_ahead.compare_exchange_weak(prev, ahead)) {
        }
        pipeline::PreparedBatch pb;
        pb.index = index;
        return pb;
      },
      nullptr);
  ASSERT_TRUE(prefetcher.async());
  pipeline::PreparedBatch pb;
  for (int64_t i = 0; i < kBatches; ++i) {
    // A deliberately slow consumer gives the producers every opportunity
    // to overrun the window if scheduling were unbounded.
    BusyWait(0.0005);
    ASSERT_TRUE(prefetcher.Next(&pb));
    EXPECT_EQ(pb.index, i);  // strict index order
    delivered.store(i + 1);
  }
  EXPECT_FALSE(prefetcher.Next(&pb));  // range exhausted
  EXPECT_LE(max_ahead.load(), kDepth);
  EXPECT_EQ(prefetcher.stats().batches, kBatches);
}

TEST_F(PipelineTest, FallsBackToSyncWithoutWorkers) {
  runtime::ThreadPool::Global().SetNumThreads(1);
  int64_t calls = 0;
  pipeline::BatchPrefetcher prefetcher(
      4, 2,
      [&](int64_t index) {
        ++calls;  // inline on the consumer thread: no synchronization
        pipeline::PreparedBatch pb;
        pb.index = index;
        return pb;
      },
      nullptr);
  EXPECT_FALSE(prefetcher.async());
  EXPECT_EQ(calls, 0);  // nothing prepared eagerly in sync mode
  pipeline::PreparedBatch pb;
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(prefetcher.Next(&pb));
    EXPECT_EQ(pb.index, i);
    EXPECT_EQ(calls, i + 1);
  }
  EXPECT_FALSE(prefetcher.Next(&pb));
  EXPECT_DOUBLE_EQ(prefetcher.stats().overlap_ratio(), 0.0);
}

TEST_F(PipelineTest, PrepareExceptionSurfacesFromNext) {
  runtime::ThreadPool::Global().SetNumThreads(4);
  pipeline::BatchPrefetcher prefetcher(
      4, 2,
      [&](int64_t index) {
        if (index == 2) throw std::runtime_error("prepare failed");
        pipeline::PreparedBatch pb;
        pb.index = index;
        return pb;
      },
      nullptr);
  pipeline::PreparedBatch pb;
  ASSERT_TRUE(prefetcher.Next(&pb));
  ASSERT_TRUE(prefetcher.Next(&pb));
  EXPECT_THROW(prefetcher.Next(&pb), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Determinism: depth is invisible to results

TEST_F(PipelineTest, ResultsBitIdenticalAcrossDepths) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  runtime::ThreadPool::Global().SetNumThreads(4);
  const graph::TemporalGraph g = MatrixGraph();
  for (const models::ModelKind kind :
       {models::ModelKind::kTgn, models::ModelKind::kTgat,
        models::ModelKind::kCawn}) {
    std::vector<uint64_t> bits;
    std::vector<std::string> digests;
    for (const int depth : {0, 1, 3}) {
      registry.Reset();
      core::LinkPredictionJob job = MatrixJob(&g, kind);
      job.train_config.pipeline_depth = depth;
      const core::LinkPredictionResult result =
          core::RunLinkPrediction(job);
      ASSERT_EQ(result.status, models::ModelStatus::kOk)
          << models::ModelKindName(kind) << " depth=" << depth;
      EXPECT_EQ(result.efficiency.pipeline_depth, depth);
      if (depth > 0) {
        EXPECT_GT(result.efficiency.pipeline_stats.batches, 0)
            << models::ModelKindName(kind);
      }
      bits.push_back(BitsOf(result.val_transductive.auc));
      bits.push_back(BitsOf(result.test[0].auc));
      bits.push_back(BitsOf(result.test[0].ap));
      digests.push_back(registry.CountersDigest());
    }
    for (size_t i = 3; i < bits.size(); ++i) {
      EXPECT_EQ(bits[i], bits[i % 3])
          << models::ModelKindName(kind) << " depth config " << i / 3;
    }
    for (size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], digests[0]) << models::ModelKindName(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Overlap accounting

TEST_F(PipelineTest, OverlapHidesSamplingHeavyPreparation) {
  // The pass condition is a count, not a wall-clock ratio that concurrent
  // tests can starve: delivering batch i schedules batch i + depth, and
  // that preparation must start on a pool thread while the consumer is
  // still computing batch i. The compute stage lasts at least as long as
  // a preparation and then waits, bounded, for that start, so a slow
  // worker wake-up only lengthens it; a prefetcher that prepares inline
  // in Next() never starts one in time.
  runtime::ThreadPool::Global().SetNumThreads(4);
  constexpr int64_t kBatches = 30;
  constexpr int kDepth = 2;
  std::vector<std::atomic<bool>> started(kBatches);
  pipeline::BatchPrefetcher prefetcher(
      kBatches, kDepth,
      [&](int64_t index) {
        started[static_cast<size_t>(index)].store(true);
        BusyWait(0.001);  // the "sampling" stage
        pipeline::PreparedBatch pb;
        pb.index = index;
        return pb;
      },
      nullptr);
  ASSERT_TRUE(prefetcher.async());
  pipeline::PreparedBatch pb;
  int64_t consumed = 0;
  int64_t started_during_compute = 0;
  bool missed = false;  // after one miss, stop waiting: the count has failed
  while (prefetcher.Next(&pb)) {
    BusyWait(0.0015);  // the "compute" stage dominates
    const int64_t scheduled = pb.index + kDepth;
    if (scheduled < kBatches) {
      const std::atomic<bool>& flag = started[static_cast<size_t>(scheduled)];
      const double until = obs::NowSeconds() + (missed ? 0.0 : 2.0);
      while (!flag.load() && obs::NowSeconds() < until) {
      }
      if (flag.load()) {
        ++started_during_compute;
      } else {
        missed = true;
      }
    }
    ++consumed;
  }
  EXPECT_EQ(consumed, kBatches);
  EXPECT_EQ(started_during_compute, kBatches - kDepth);
  const pipeline::PipelineStats stats = prefetcher.stats();
  EXPECT_EQ(stats.batches, kBatches);
  EXPECT_GE(stats.prefetched, kBatches / 2);
}

TEST_F(PipelineTest, OverlapRatioReportedByTrainer) {
  runtime::ThreadPool::Global().SetNumThreads(4);
  const graph::TemporalGraph g = MatrixGraph();
  core::LinkPredictionJob job = MatrixJob(&g, models::ModelKind::kTgn);
  job.train_config.pipeline_depth = 2;
  const core::LinkPredictionResult result = core::RunLinkPrediction(job);
  ASSERT_EQ(result.status, models::ModelStatus::kOk);
  EXPECT_EQ(result.efficiency.pipeline_depth, 2);
  EXPECT_GT(result.efficiency.pipeline_stats.batches, 0);
  EXPECT_GE(result.efficiency.pipeline_overlap_ratio, 0.0);
  EXPECT_LE(result.efficiency.pipeline_overlap_ratio, 1.0);
  EXPECT_GE(result.efficiency.pipeline_stats.prepare_seconds, 0.0);

  job.train_config.pipeline_depth = 0;
  const core::LinkPredictionResult sync = core::RunLinkPrediction(job);
  ASSERT_EQ(sync.status, models::ModelStatus::kOk);
  EXPECT_EQ(sync.efficiency.pipeline_depth, 0);
  EXPECT_DOUBLE_EQ(sync.efficiency.pipeline_overlap_ratio, 0.0);
  EXPECT_EQ(sync.efficiency.pipeline_stats.prefetched, 0);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume with prefetch on

TEST_F(PipelineTest, CheckpointResumeByteIdenticalWithPipelineOn) {
  runtime::ThreadPool::Global().SetNumThreads(4);
  const graph::TemporalGraph g = MatrixGraph();
  const std::string path = ::testing::TempDir() + "/pipeline_resume.ckpt";
  std::remove(path.c_str());

  core::LinkPredictionJob job = MatrixJob(&g, models::ModelKind::kTgn);
  job.train_config.pipeline_depth = 2;
  const core::LinkPredictionResult reference = core::RunLinkPrediction(job);
  ASSERT_EQ(reference.status, models::ModelStatus::kOk);

  // Crash mid-epoch-2 (~3 train batches per epoch). The prefetcher had
  // batches in flight at the crash; none of them may leak into the
  // checkpoint — resume must replay the uninterrupted trajectory exactly.
  job.train_config.checkpoint_path = path;
  base::FaultSpec spec;
  spec.at_step = 4;
  base::FaultInjector::Global().Arm(
      base::FaultSite::kThrowForward, spec);
  EXPECT_THROW(core::RunLinkPrediction(job), std::runtime_error);
  base::FaultInjector::Global().DisarmAll();

  const core::LinkPredictionResult resumed = core::RunLinkPrediction(job);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_EQ(resumed.status, models::ModelStatus::kOk);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(BitsOf(resumed.test[s].auc), BitsOf(reference.test[s].auc));
    EXPECT_EQ(BitsOf(resumed.test[s].ap), BitsOf(reference.test[s].ap));
  }
  EXPECT_EQ(BitsOf(resumed.val_transductive.auc),
            BitsOf(reference.val_transductive.auc));
}

// ---------------------------------------------------------------------------
// Fault injection: a stall in the prefetch stage is still governed by the
// job deadline (BENCHTEMP_FAULTS=stall_batch fires inside the producer now)

TEST_F(PipelineTest, StallInPrefetchStageTripsDeadline) {
  runtime::ThreadPool::Global().SetNumThreads(4);
  // The CI grammar, on purpose: site@step:count:stall_ms.
  ASSERT_TRUE(
      base::FaultInjector::Global().Configure("stall_batch@0:1:600"));
  const graph::TemporalGraph g = MatrixGraph();
  core::LinkPredictionJob job = MatrixJob(&g, models::ModelKind::kTgn);
  job.train_config.pipeline_depth = 2;
  job.train_config.deadline = obs::NowSeconds() + 0.15;
  const core::LinkPredictionResult result = core::RunLinkPrediction(job);
  EXPECT_EQ(result.annotation, "x");
  EXPECT_GT(obs::NowSeconds(), job.train_config.deadline);
  EXPECT_GE(base::FaultInjector::Global().fire_count(
                base::FaultSite::kStallBatch),
            1);
  EXPECT_EQ(result.test[0].count, 0);  // wound down before the test pass
}

TEST_F(PipelineTest, StallParityInSynchronousMode) {
  ASSERT_TRUE(
      base::FaultInjector::Global().Configure("stall_batch@0:1:600"));
  const graph::TemporalGraph g = MatrixGraph();
  core::LinkPredictionJob job = MatrixJob(&g, models::ModelKind::kTgn);
  job.train_config.pipeline_depth = 0;
  job.train_config.deadline = obs::NowSeconds() + 0.15;
  const core::LinkPredictionResult result = core::RunLinkPrediction(job);
  EXPECT_EQ(result.annotation, "x");
  EXPECT_GT(obs::NowSeconds(), job.train_config.deadline);
  EXPECT_GE(base::FaultInjector::Global().fire_count(
                base::FaultSite::kStallBatch),
            1);
  EXPECT_EQ(result.test[0].count, 0);
}

}  // namespace
}  // namespace benchtemp
