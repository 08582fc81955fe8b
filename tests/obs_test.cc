// Tests for the observability layer (src/obs): the determinism contract's
// observability extension (counters bit-identical across thread counts),
// phase accounting sanity against wall-clock, the disabled path's
// zero-allocation guarantee, and the exact bytes of the JSON export.

#include "obs/metrics.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "obs/export.h"
#include "robustness/checkpoint.h"
#include "runtime/thread_pool.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every non-aligned form of operator new and
// delete is replaced, so any heap activity in the process bumps the counter
// and each block is freed by the allocator that made it: a replaced delete
// freeing a block from the runtime's own nothrow new (std::stable_sort's
// temporary buffer) is an ASan alloc-dealloc-mismatch. The aligned forms
// stay the runtime's own matched pair.
// ---------------------------------------------------------------------------

namespace {
std::atomic<int64_t> g_alloc_count{0};

void* CountedMalloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace benchtemp {
namespace {

using core::LinkPredictionJob;
using core::LinkPredictionResult;
using core::RunLinkPrediction;
using graph::TemporalGraph;

/// Same learnable fixture as trainer_test: a small bipartite stream with
/// enough structure that a real training run exercises every phase.
TemporalGraph MakeLearnableGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 25;
  cfg.num_edges = 900;
  cfg.edge_reuse_prob = 0.7;
  cfg.affinity = 0.7;
  cfg.edge_feature_dim = 4;
  cfg.label_classes = 2;
  cfg.label_positive_rate = 0.15;
  cfg.seed = 21;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

LinkPredictionJob MakeSmallJob(const TemporalGraph& g) {
  LinkPredictionJob job;
  job.graph = &g;
  job.num_users = 60;
  job.kind = models::ModelKind::kTgn;
  job.model_config.embedding_dim = 8;
  job.model_config.time_dim = 8;
  job.model_config.num_neighbors = 4;
  job.model_config.num_layers = 1;
  job.model_config.num_heads = 2;
  job.train_config.max_epochs = 2;
  job.train_config.batch_size = 100;
  job.train_config.learning_rate = 1e-3f;
  return job;
}

/// Restores the enabled override, the global thread count, and a clean
/// registry no matter how a test exits.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
  }
  void TearDown() override {
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
    obs::MetricRegistry::Global().Reset();
  }
  int original_threads_ = 1;
};

TEST_F(ObsTest, CountersBitIdenticalAcrossThreadCounts) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  const TemporalGraph g = MakeLearnableGraph();

  std::vector<std::string> digests;
  for (const int threads : {1, 4}) {
    runtime::ThreadPool::Global().SetNumThreads(threads);
    registry.Reset();
    const LinkPredictionResult result = RunLinkPrediction(MakeSmallJob(g));
    ASSERT_EQ(result.status, models::ModelStatus::kOk);
    digests.push_back(registry.CountersDigest());
  }

  // Every counter is a pure function of the job stream, so the digest is
  // byte-identical regardless of BENCHTEMP_NUM_THREADS.
  EXPECT_EQ(digests[0], digests[1]) << "counters diverged across thread "
                                       "counts:\n"
                                    << digests[0] << "---\n"
                                    << digests[1];

  // And the run actually counted things (the digest is not trivially zero).
  EXPECT_GT(registry.value(obs::Counter::kTrainBatches), 0);
  EXPECT_GT(registry.value(obs::Counter::kTrainEvents), 0);
  EXPECT_GT(registry.value(obs::Counter::kSamplerNegatives), 0);
  EXPECT_GT(registry.value(obs::Counter::kParallelForCalls), 0);
}

TEST_F(ObsTest, PhaseSecondsAreAttributedAndBoundedByWallTime) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  registry.Reset();

  const TemporalGraph g = MakeLearnableGraph();
  const double wall_start = obs::NowSeconds();
  const LinkPredictionResult result = RunLinkPrediction(MakeSmallJob(g));
  const double wall = obs::NowSeconds() - wall_start;
  ASSERT_EQ(result.status, models::ModelStatus::kOk);

  double sum = 0.0;
  for (int p = 0; p < obs::kNumPhases; ++p) {
    EXPECT_GE(result.efficiency.phase_seconds[p], 0.0);
    sum += result.efficiency.phase_seconds[p];
  }
  // The run-attributed phase time is non-trivial and never exceeds the
  // job's wall-time (5% slack for clock granularity).
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, wall * 1.05);
  // The batch-stream phases all ran.
  using obs::Phase;
  EXPECT_GT(result.efficiency.phase_seconds[static_cast<int>(Phase::kSample)],
            0.0);
  EXPECT_GT(result.efficiency.phase_seconds[static_cast<int>(Phase::kForward)],
            0.0);
  EXPECT_GT(
      result.efficiency.phase_seconds[static_cast<int>(Phase::kBackward)], 0.0);
  EXPECT_GT(result.efficiency.phase_seconds[static_cast<int>(Phase::kEval)],
            0.0);

  // The process-wide totals saw at least as many timed intervals.
  const obs::PhaseTotals totals = registry.phase_totals();
  int64_t intervals = 0;
  for (int p = 0; p < obs::kNumPhases; ++p) intervals += totals.count[p];
  EXPECT_GT(intervals, 0);
}

TEST_F(ObsTest, DisabledPathTakesNoAllocationsAndCountsNothing) {
  auto& registry = obs::MetricRegistry::Global();

  // Warm up: materialize the singleton and this thread's slot while
  // collection is on, so the measured region exercises steady state.
  obs::MetricRegistry::OverrideEnabledForTest(1);
  { obs::ScopedPhaseTimer warm(obs::Phase::kSample); }
  registry.Add(obs::Counter::kTrainBatches, 0);
  registry.DrainThisThread(nullptr);
  registry.Reset();

  obs::MetricRegistry::OverrideEnabledForTest(0);
  const int64_t batches_before = registry.value(obs::Counter::kTrainBatches);
  const int64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedPhaseTimer timer(obs::Phase::kForward);
    registry.Add(obs::Counter::kTrainBatches, 1);
    registry.AddPhaseSeconds(obs::Phase::kForward, 1.0);
  }
  registry.DrainThisThread(nullptr);
  const int64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before)
      << "disabled observability hot path allocated";
  EXPECT_EQ(registry.value(obs::Counter::kTrainBatches), batches_before);
  const obs::PhaseTotals totals = registry.phase_totals();
  EXPECT_EQ(totals.count[static_cast<int>(obs::Phase::kForward)], 0);
}

TEST_F(ObsTest, ExportJsonGoldenBytes) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  registry.Reset();

  registry.Add(obs::Counter::kTrainBatches, 7);
  registry.Add(obs::Counter::kTrainEvents, 700);
  registry.Add(obs::Counter::kCheckpointFallbacks, 2);
  registry.SetGauge("train.retried_epoch_seconds", 0.25);
  registry.AddPhaseSeconds(obs::Phase::kForward, 0.125);
  registry.AddPhaseSeconds(obs::Phase::kEval, 0.5);
  registry.DrainThisThread(nullptr);

  obs::RunRecord run;
  run.model = "T\"G\\N";
  run.dataset = "uci\tv2";
  run.task = "link\nprediction";
  run.epochs_run = 7;
  run.nan_retries = 1;
  run.seconds_per_epoch = 0.5;
  run.retried_epoch_seconds = 0.1;
  run.train_events_per_second = 1400.0;
  run.eval_events_per_second = 2800.5;
  run.state_bytes = 4096;
  run.parameter_bytes = 1024;
  run.checkpoint_bytes = 8192;
  run.phase_seconds[static_cast<int>(obs::Phase::kForward)] = 0.125;
  registry.AppendRun(run);

  obs::ExportInfo info;
  info.bench = "obs_test";
  info.wall_seconds = 1.5;
  info.max_rss_gb = 0.25;
  const std::string json = obs::ExportJson(info);

  // The exact bytes of the artifact schema: any change to key order,
  // number formatting, escaping or the counter and phase taxonomies must
  // update this hash deliberately (and bump kMetricsSchemaVersion when it
  // breaks readers).
  EXPECT_EQ(robustness::Fnv1a64(json), 0xc66ff12b1c54283full) << json;
}

TEST_F(ObsTest, ResetZeroesEverything) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  registry.Add(obs::Counter::kRollbacks, 3);
  registry.SetGauge("g", 1.0);
  registry.AddPhaseSeconds(obs::Phase::kEval, 2.0);
  registry.AppendRun(obs::RunRecord{});
  registry.Reset();

  EXPECT_EQ(registry.value(obs::Counter::kRollbacks), 0);
  EXPECT_TRUE(registry.gauges().empty());
  EXPECT_TRUE(registry.runs().empty());
  const obs::PhaseTotals totals = registry.phase_totals();
  for (int p = 0; p < obs::kNumPhases; ++p) {
    EXPECT_DOUBLE_EQ(totals.seconds[p], 0.0);
    EXPECT_EQ(totals.count[p], 0);
  }
}

}  // namespace
}  // namespace benchtemp
