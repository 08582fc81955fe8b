// Parallel-runtime scaling study (DESIGN.md throughput proxy): trains
// representative models on the synthetic medium dataset at 1/2/4/N runtime
// threads and reports training throughput (events/sec) per thread count,
// the speedup over the serial engine, and the eval metrics — which must be
// bit-identical across thread counts (the runtime's determinism contract:
// static chunking + per-root RNG streams).
//
// Knobs: BENCHTEMP_QUICK=1 shrinks the grid; BENCHTEMP_SCALING_THREADS
// overrides the max thread count probed (default: hardware concurrency).

#include <algorithm>
#include <cmath>

#include "bench/bench_common.h"
#include "datagen/synthetic.h"
#include "runtime/thread_pool.h"
#include "tensor/numeric.h"

namespace {

using namespace benchtemp;

struct ScalingPoint {
  int threads = 1;
  double events_per_second = 0.0;
  double seconds_per_epoch = 0.0;
  double auc = 0.0;
  double ap = 0.0;
};

graph::TemporalGraph MediumGraph(bool quick, int64_t feature_dim) {
  datagen::SyntheticConfig cfg;
  cfg.name = "synthetic-medium";
  cfg.num_users = quick ? 300 : 800;
  cfg.num_items = quick ? 120 : 300;
  cfg.num_edges = quick ? 3000 : 12000;
  cfg.seed = 7;
  graph::TemporalGraph g(datagen::Generate(cfg));
  g.InitNodeFeatures(feature_dim);
  return g;
}

ScalingPoint RunAt(const graph::TemporalGraph& g, int32_t num_users,
                   models::ModelKind kind, bool quick, int threads) {
  runtime::ThreadPool::Global().SetNumThreads(threads);
  core::LinkPredictionJob job;
  job.graph = &g;
  job.num_users = num_users;
  job.kind = kind;
  // Wider layers than the paper-table grid: the scaling study measures the
  // engine, so the kernels should carry enough work per op to amortize
  // dispatch (the table benches keep the CPU grid small instead).
  job.model_config.embedding_dim = quick ? 24 : 64;
  job.model_config.time_dim = quick ? 16 : 32;
  job.model_config.num_neighbors = quick ? 6 : 10;
  job.model_config.num_walks = quick ? 3 : 4;
  job.model_config.walk_length = 2;
  job.train_config.max_epochs = quick ? 1 : 2;
  job.train_config.batch_size = quick ? 256 : 512;
  job.train_config.learning_rate = 1e-3f;
  job.train_config.seed = 1234;
  const core::LinkPredictionResult result = core::RunLinkPrediction(job);
  ScalingPoint point;
  point.threads = threads;
  point.events_per_second = result.efficiency.train_events_per_second;
  point.seconds_per_epoch = result.efficiency.seconds_per_epoch;
  point.auc = result.test[0].auc;
  point.ap = result.test[0].ap;
  return point;
}

}  // namespace

int main() {
  benchtemp::bench::BenchArtifact artifact("parallel_scaling");
  const bool quick = bench::EnvInt("BENCHTEMP_QUICK", 0) != 0;
  const int max_threads = std::max(
      1, bench::EnvInt("BENCHTEMP_SCALING_THREADS",
                       runtime::DefaultNumThreads()));
  std::vector<int> thread_counts;
  for (int t : {1, 2, 4, max_threads}) {
    if (t <= max_threads &&
        std::find(thread_counts.begin(), thread_counts.end(), t) ==
            thread_counts.end()) {
      thread_counts.push_back(t);
    }
  }

  const graph::TemporalGraph g =
      MediumGraph(quick, /*feature_dim=*/quick ? 48 : 128);
  const int32_t num_users = quick ? 300 : 800;
  std::printf(
      "Parallel scaling on synthetic-medium (%lld events); thread counts:",
      static_cast<long long>(g.num_events()));
  for (int t : thread_counts) std::printf(" %d", t);
  std::printf("\n\n");

  bool deterministic = true;
  for (models::ModelKind kind :
       {models::ModelKind::kTgn, models::ModelKind::kCawn}) {
    std::printf("--- %s ---\n", models::ModelKindName(kind));
    std::printf("%8s %14s %12s %10s %12s %12s\n", "threads", "events/s",
                "s/epoch", "speedup", "AUC", "AP");
    std::vector<ScalingPoint> points;
    for (int t : thread_counts) {
      points.push_back(RunAt(g, num_users, kind, quick, t));
      const ScalingPoint& p = points.back();
      const double speedup =
          points.front().events_per_second > 0.0
              ? p.events_per_second / points.front().events_per_second
              : 0.0;
      std::printf("%8d %14.1f %12.4f %9.2fx %12.6f %12.6f\n", p.threads,
                  p.events_per_second, p.seconds_per_epoch, speedup, p.auc,
                  p.ap);
      // Determinism contract: metrics must match the 1-thread run EXACTLY —
      // bit-identical comparison is the whole point of this check.
      if (!tensor::ExactlyEqual(p.auc, points.front().auc) ||
          !tensor::ExactlyEqual(p.ap, points.front().ap)) {
        deterministic = false;
      }
    }
    std::printf("\n");
  }
  runtime::ThreadPool::Global().SetNumThreads(runtime::DefaultNumThreads());

  std::printf("metrics bitwise identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — determinism contract violated");
  return deterministic ? 0 : 1;
}
