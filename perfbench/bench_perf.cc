// bench_perf: the repository benchmark (see perfbench/README.md).
//
// One process runs one workload on a graph generated from --seed:
//
//   bench_perf --workload W --seed S --seconds N --trace 0 --out DIR
//     Sets up the graph 15 times (setup_s is the median), then runs the job
//     through core::RunLinkPrediction for about N seconds (at least 3 jobs)
//     and prints the end-to-end metrics as medians over the jobs.
//
//   bench_perf --workload W --seed S --seconds N --trace 1 --out DIR
//     Runs the job twice untraced, then replays it step by step through
//     the layers' public functions, timing every call from this file. Writes
//     DIR/trace_W.json (Chrome trace events) and prints the per-layer
//     metrics. The replay must reproduce the untraced job bit for bit.
//
//   bench_perf --smoke --out DIR
//     All four workloads at one epoch through both paths (about 15 s).
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// Every setting is a constant below; bench_perf refuses to start when an
// environment variable that changes the measured program is set.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/data_loader.h"
#include "core/early_stop.h"
#include "core/edge_sampler.h"
#include "core/evaluator.h"
#include "core/mrr_evaluator.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "graph/temporal_graph.h"
#include "io/file.h"
#include "models/factory.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "robustness/checkpoint.h"
#include "robustness/lineage.h"
#include "runtime/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/expr.h"
#include "tensor/kernels/arena.h"
#include "tensor/optimizer.h"
#include "tensor/random.h"
#include "tensor/serialize.h"

namespace benchtemp::perfbench {
namespace {

using models::ModelKind;
using obs::NowSeconds;
namespace expr = tensor::expr;

// --- Fixed settings ---------------------------------------------------------

/// Pool size: fixed, and below the 4 vCPUs of the machine the bounds were
/// measured on, so a run never competes with itself for the whole machine.
/// The speed probe uses as many threads.
constexpr int kThreads = 2;
constexpr int kPipelineDepth = 2;
constexpr int kSetupReps = 15;
constexpr int kMinJobs = 3;
constexpr int64_t kFeatureDim = 48;
constexpr int kBatchSize = 200;
constexpr float kLearningRate = 1e-3f;
constexpr int kCheckpointGenerations = 3;
/// Ranked-eval quality floor on tgn-rank; chance is about 0.05 at k = 100.
constexpr double kMinTestMrr = 0.08;
constexpr double kMinCoverage = 0.95;

/// Environment variables that change the program being measured.
constexpr const char* kRefusedEnv[] = {
    "BENCHTEMP_METRICS", "BENCHTEMP_CHECK",    "BENCHTEMP_FAULTS",
    "BENCHTEMP_FUSION",  "BENCHTEMP_SIMD",     "BENCHTEMP_ARENA",
    "BENCHTEMP_PIPELINE", "BENCHTEMP_MRR_K",   "BENCHTEMP_QUICK",
    "BENCHTEMP_NUM_THREADS"};

/// One workload: a generated graph and the link-prediction job run on it.
struct Workload {
  const char* name;
  ModelKind kind;
  int32_t users;
  /// Item block of a bipartite graph; 0 = homogeneous.
  int32_t items;
  int64_t events;
  int epochs;
  /// Ranking candidates per positive in the val and test passes; 0 = off.
  int mrr_k;
  /// Durable checkpoint lineage at every epoch boundary.
  bool checkpoint;
  /// A job whose transductive test AUC is lower has failed. Each floor sits
  /// well below the workload's worst seed (see README.md), so it catches a
  /// change that breaks learning, not the spread between seeds.
  double min_test_auc;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"tgn-train", ModelKind::kTgn, 500, 0, 4000, 4, 0, true, 0.75},
    {"tgat-train", ModelKind::kTgat, 300, 0, 2500, 3, 0, false, 0.55},
    {"cawn-train", ModelKind::kCawn, 300, 100, 6000, 5, 0, false, 0.7},
    {"tgn-rank", ModelKind::kTgn, 600, 0, 6000, 2, 100, false, 0.75},
};

/// The --smoke size of a workload: the same graph, one epoch and at most
/// 20 ranking candidates. One epoch learns less than a full job, so the
/// AUC floor only asks for a result clearly above chance.
Workload SmokeSize(Workload w) {
  w.epochs = 1;
  w.mrr_k = std::min(w.mrr_k, 20);
  w.min_test_auc = std::min(w.min_test_auc, 0.55);
  return w;
}

/// The non-QUICK grid of the table benches (bench/bench_common.h), pinned
/// here so a change to the bench harness cannot change the benchmark.
models::ModelConfig ModelConfigFor(ModelKind kind) {
  models::ModelConfig config;
  config.embedding_dim = 24;
  config.time_dim = 16;
  config.num_neighbors = kind == ModelKind::kTgat ? 5 : 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.num_walks = 3;
  config.walk_length = 2;
  return config;
}

datagen::SyntheticConfig GraphConfigFor(const Workload& w, uint64_t seed) {
  datagen::SyntheticConfig config;
  config.name = w.name;
  config.num_users = w.users;
  config.num_items = w.items;
  config.num_edges = w.events;
  config.zipf_src = 1.2;
  config.zipf_dst = 1.2;
  config.time_granularity = w.events;
  config.time_span = static_cast<double>(w.events);
  config.edge_reuse_prob = 0.5;
  // Strong communities make the small graphs learnable within a few
  // seconds of training, so quality clears the failure thresholds on every
  // seed by a margin.
  config.affinity = 0.9;
  config.edge_feature_dim = 100;
  config.seed = seed;
  return config;
}

core::LinkPredictionJob MakeJob(const Workload& w,
                                const graph::TemporalGraph& g, uint64_t seed,
                                const std::string& checkpoint_dir) {
  core::LinkPredictionJob job;
  job.graph = &g;
  job.num_users = w.items > 0 ? w.users : 0;
  job.kind = w.kind;
  job.model_config = ModelConfigFor(w.kind);
  core::TrainConfig& tc = job.train_config;
  tc.max_epochs = w.epochs;
  // Early stopping never changes the amount of work.
  tc.patience = w.epochs;
  tc.batch_size = kBatchSize;
  tc.learning_rate = kLearningRate;
  tc.seed = 1000 + seed;
  tc.pipeline_depth = kPipelineDepth;
  tc.mrr_k = w.mrr_k;
  if (w.checkpoint) tc.checkpoint_path = checkpoint_dir + "/" + w.name;
  tc.checkpoint_generations = kCheckpointGenerations;
  return job;
}

// --- Small helpers ----------------------------------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Linear-interpolated quantile q in [0, 1] of `values` (non-empty).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

using Counters = std::array<int64_t, obs::kNumCounters>;

Counters ReadCounters() {
  Counters c{};
  const obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    c[static_cast<size_t>(i)] = registry.value(static_cast<obs::Counter>(i));
  }
  return c;
}

int64_t Delta(const Counters& before, const Counters& after,
              obs::Counter counter) {
  const size_t i = static_cast<size_t>(counter);
  return after[i] - before[i];
}

/// Per-batch preparation seed; the same SplitMix64 lanes as the trainer.
uint64_t BatchSeed(uint64_t job_seed, int epoch, int64_t batch_index) {
  return tensor::SplitMix64(
      tensor::SplitMix64(job_seed, static_cast<uint64_t>(epoch)),
      static_cast<uint64_t>(batch_index) + 17);
}

// --- Machine-speed probe ----------------------------------------------------
//
// On a machine shared with other tenants, their load slows the workloads'
// arithmetic by up to a third for minutes at a time. This throughput-bound
// multiply-add loop on two threads slows with them, so the timed end-to-end
// metrics are rates per unit of probe work: events per second divided by
// the probe's Gop/s (README.md, "Machine normalisation", has the numbers).
// The probe is the benchmark's own code, so no change to the library moves
// it.

/// About 0.3 s of work per thread. The machine's speed moves within tenths
/// of a second; 0.1 s probes added noise of their own to the normalised
/// rates, 0.3 s probes less (README.md).
constexpr int64_t kProbeReps = 3600000;

/// Fixed multiply-add work over an L1-resident block with 16 independent
/// accumulators, so it is bound by arithmetic throughput.
float ProbeWork() {
  float block[256];
  for (int i = 0; i < 256; ++i) {
    block[i] = 1.0f + static_cast<float>(i) * 1e-4f;
  }
  float acc[16] = {};
  for (int64_t r = 0; r < kProbeReps; ++r) {
    for (int i = 0; i < 256; i += 16) {
      for (int j = 0; j < 16; ++j) acc[j] = acc[j] * 0.999f + block[i + j];
    }
  }
  float sum = 0.0f;
  for (const float a : acc) sum += a;
  return sum;
}

/// The machine's multiply-add rate right now, in Gop/s per thread, with as
/// many threads busy as the workloads use.
double ProbeGops() {
  static_assert(kThreads == 2, "the probe runs one helper thread");
  float helper_sum = 0.0f;
  const double start = NowSeconds();
  std::thread helper([&helper_sum] { helper_sum = ProbeWork(); });
  const float sum = ProbeWork();
  helper.join();
  const double seconds = NowSeconds() - start;
  // Consumes the results so the work cannot be optimised away.
  volatile float sink = sum + helper_sum;
  (void)sink;
  return static_cast<double>(kProbeReps) * 256.0 / seconds / 1e9;
}

// --- Tracing ----------------------------------------------------------------

/// In-memory span recorder of the traced run. A span is one call into a
/// layer: name, thread, start and end. Parents are recovered from the open
/// and close order on each thread, so recording takes no thread-local state.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int tid = 0;
    int64_t open_seq = 0;
    int64_t close_seq = 0;
    double start = 0.0;
    double end = 0.0;
    /// Batch index for per-batch spans, -1 otherwise.
    int64_t batch = -1;
    /// Index of the enclosing span on the same thread; -1 at the top.
    int64_t parent = -1;

    double seconds() const { return end - start; }
  };

  /// RAII span: opens on construction, recorded on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t batch = -1)
        : tracer_(tracer) {
      span_.name = name;
      span_.batch = batch;
      span_.open_seq = tracer_->seq_.fetch_add(1, std::memory_order_relaxed);
      span_.start = NowSeconds();
    }
    ~Scope() {
      span_.end = NowSeconds();
      span_.close_seq = tracer_->seq_.fetch_add(1, std::memory_order_relaxed);
      tracer_->Record(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// The constructing thread, the training thread, is tid 0.
  Tracer() : origin_(NowSeconds()) {
    base::MutexLock lock(mutex_);
    tids_.emplace(std::this_thread::get_id(), 0);
  }

  /// All recorded spans, each thread's in open order, with parents set.
  std::vector<Span> Finish() const {
    std::vector<Span> spans;
    {
      base::MutexLock lock(mutex_);
      spans = spans_;
    }
    std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
      return x.tid != y.tid ? x.tid < y.tid : x.open_seq < y.open_seq;
    });
    std::vector<int64_t> open;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (i > 0 && spans[i].tid != spans[i - 1].tid) open.clear();
      while (!open.empty() &&
             spans[static_cast<size_t>(open.back())].close_seq <
                 spans[i].open_seq) {
        open.pop_back();
      }
      spans[i].parent = open.empty() ? -1 : open.back();
      open.push_back(static_cast<int64_t>(i));
    }
    return spans;
  }

  double origin() const { return origin_; }

 private:
  void Record(Span span) {
    base::MutexLock lock(mutex_);
    const std::thread::id self = std::this_thread::get_id();
    auto it = tids_.find(self);
    if (it == tids_.end()) {
      it = tids_.emplace(self, static_cast<int>(tids_.size())).first;
    }
    span.tid = it->second;
    spans_.push_back(span);
  }

  const double origin_;
  std::atomic<int64_t> seq_{0};
  mutable base::Mutex mutex_;
  std::map<std::thread::id, int> tids_ GUARDED_BY(mutex_);
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

using Scope = Tracer::Scope;

/// Chrome trace-event JSON of `spans` (open in ui.perfetto.dev).
std::string TraceJson(const std::vector<Tracer::Span>& spans, double origin) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  int max_tid = -1;
  char buf[256];
  for (const Tracer::Span& s : spans) {
    max_tid = std::max(max_tid, s.tid);
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                  s.name, cat.c_str(), s.tid, (s.start - origin) * 1e6,
                  s.seconds() * 1e6);
    out += buf;
    if (s.batch >= 0) {
      std::snprintf(buf, sizeof(buf), ", \"args\": {\"batch\": %lld}",
                    static_cast<long long>(s.batch));
      out += buf;
    }
    out += "},\n";
  }
  for (int tid = 0; tid <= max_tid; ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %d, \"args\": {\"name\": \"%s%d\"}},\n",
                  tid, tid == 0 ? "train-" : "pool-", tid);
    out += buf;
  }
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"bench_perf\"}}\n]}\n";
  return out;
}

// --- The traced replay ------------------------------------------------------

/// Outcome of one traced replay of RunLinkPrediction.
struct ReplayResult {
  std::string failure;
  double val_auc = 0.5;
  double val_mrr = 0.0;
  double test_auc = 0.5;
  double test_mrr = 0.0;
  double wall_seconds = 0.0;
  /// Edge scores of the test pass: pos + neg, plus k per positive.
  int64_t test_scores = 0;
  /// Training-loop counter deltas (prefetcher lifetimes included).
  int64_t train_events = 0;
  int64_t flops = 0;
  int64_t arena_bytes = 0;
  int64_t arena_resets = 0;
  int64_t parallel_for_calls = 0;
  int64_t parallel_for_chunks = 0;
  int64_t prefetch_batches = 0;
  int64_t prefetch_hits = 0;
  int64_t checkpoint_bytes = 0;
  /// Whole-job counter deltas.
  int64_t collisions_rejected = 0;
  int64_t pool_fallbacks = 0;
  int64_t io_retries = 0;
};

struct PassScores {
  std::vector<double> pos;
  std::vector<double> neg;
  std::vector<double> ranks;
};

/// AUC/AP over every event of a pass, pos and neg interleaved per event
/// as the trainer's SubsetMetrics orders them.
core::SettingMetrics PassMetrics(const PassScores& scores) {
  std::vector<double> values;
  std::vector<int> labels;
  for (size_t i = 0; i < scores.pos.size(); ++i) {
    values.push_back(scores.pos[i]);
    labels.push_back(1);
    values.push_back(scores.neg[i]);
    labels.push_back(0);
  }
  core::SettingMetrics metrics;
  metrics.count = static_cast<int64_t>(scores.pos.size());
  if (!values.empty()) {
    metrics.auc = core::RocAuc(values, labels);
    metrics.ap = core::AveragePrecision(values, labels);
  }
  return metrics;
}

/// MRR over every scored event of a pass (the transductive subset).
double PassMrr(const PassScores& scores) {
  std::vector<double> ranks;
  for (const double r : scores.ranks) {
    if (r >= 1.0) ranks.push_back(r);
  }
  return core::RankingFromRanks(ranks).mrr;
}

/// One val or test pass, as the trainer's ScorePass runs it, with spans.
void TracedScorePass(Tracer* tracer, models::TgnnModel* model,
                     const graph::TemporalGraph& graph,
                     const std::vector<int64_t>& events,
                     const core::TrainConfig& tc,
                     const core::EdgeSampler& sampler,
                     const core::CandidateSampler* candidates,
                     uint64_t pass_seed, PassScores* out) {
  out->pos.assign(events.size(), 0.0);
  out->neg.assign(events.size(), 0.0);
  out->ranks.assign(candidates != nullptr ? events.size() : 0, 0.0);
  const std::vector<models::Batch> batches =
      core::MakeBatches(graph, events, tc.batch_size);
  auto prepare = [&](int64_t bi) {
    Scope span(tracer, "pipeline.eval_prepare", bi);
    pipeline::PreparedBatch pb;
    pb.index = bi;
    const models::Batch& pbatch = batches[static_cast<size_t>(bi)];
    const uint64_t seed = BatchSeed(pass_seed, 0, bi);
    {
      Scope s(tracer, "core.eval_negatives", bi);
      pb.negatives = sampler.SampleNegativesKeyed(tensor::SplitMix64(seed, 0),
                                                  pbatch.srcs, pbatch.dsts);
    }
    if (candidates != nullptr) {
      Scope s(tracer, "core.candidates", bi);
      pb.candidates = candidates->SampleCandidateBatch(
          tensor::SplitMix64(seed, 1), pbatch.srcs, pbatch.dsts);
    }
    return pb;
  };
  pipeline::BatchPrefetcher prefetcher(static_cast<int64_t>(batches.size()),
                                       tc.pipeline_depth, prepare, nullptr);
  size_t cursor = 0;
  std::vector<double> row;
  for (size_t i = 0; i < batches.size(); ++i) {
    Scope step(tracer, "core.eval_step", static_cast<int64_t>(i));
    tensor::kernels::TapeScope tape_scope;
    pipeline::PreparedBatch pb;
    {
      Scope s(tracer, "pipeline.eval_wait", static_cast<int64_t>(i));
      if (!prefetcher.Next(&pb)) break;
    }
    const int64_t bi = pb.index;
    const models::Batch& batch = batches[static_cast<size_t>(bi)];
    tensor::Var pos, neg;
    {
      Scope s(tracer, "models.eval_forward", bi);
      pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
      neg = model->ScoreEdges(batch.srcs, pb.negatives, batch.ts);
    }
    for (int64_t j = 0; j < batch.size(); ++j) {
      out->pos[cursor + static_cast<size_t>(j)] = pos->value.at(j);
      out->neg[cursor + static_cast<size_t>(j)] = neg->value.at(j);
    }
    if (candidates != nullptr) {
      const int k = candidates->k();
      tensor::Var cand;
      {
        Scope s(tracer, "models.score_candidates", bi);
        cand = model->ScoreCandidates(batch.srcs, pb.candidates, batch.ts, k);
      }
      Scope s(tracer, "core.rank", bi);
      row.resize(static_cast<size_t>(k));
      for (int64_t j = 0; j < batch.size(); ++j) {
        for (int c = 0; c < k; ++c) {
          row[static_cast<size_t>(c)] = cand->value.at(j * k + c);
        }
        out->ranks[cursor + static_cast<size_t>(j)] = core::RankOfPositive(
            out->pos[cursor + static_cast<size_t>(j)], row.data(), k,
            tc.mrr_tie_policy);
      }
    }
    cursor += static_cast<size_t>(batch.size());
    Scope s(tracer, "models.eval_update_state", bi);
    model->UpdateState(batch);
  }
}

/// Replays RunLinkPrediction for `job` (pipeline depth > 0, no faults, no
/// cancel token, no resume) step by step through the layers' public
/// functions, with a span around every call.
ReplayResult ReplayJob(const core::LinkPredictionJob& job, Tracer* tracer) {
  ReplayResult r;
  const graph::TemporalGraph& graph = *job.graph;
  const core::TrainConfig& tc = job.train_config;
  const Counters job_before = ReadCounters();
  const double job_start = NowSeconds();
  {
    Scope job_span(tracer, "core.job");
    core::LinkPredictionSplit split;
    {
      Scope s(tracer, "core.split");
      split = core::SplitLinkPrediction(graph, job.split_config);
    }
    std::optional<graph::NeighborFinder> train_finder;
    std::optional<graph::NeighborFinder> full_finder;
    {
      Scope s(tracer, "graph.index_build");
      train_finder.emplace(graph, split.train_events);
    }
    {
      Scope s(tracer, "graph.index_build");
      full_finder.emplace(graph);
    }

    const int32_t dst_lo =
        job.num_users > 0 && job.num_users < graph.num_nodes() ? job.num_users
                                                               : 0;
    const int32_t dst_hi = graph.num_nodes();
    std::optional<core::RandomEdgeSampler> train_sampler;
    std::unique_ptr<core::EdgeSampler> val_sampler, test_sampler;
    std::unique_ptr<core::CandidateSampler> candidates;
    std::unique_ptr<models::TgnnModel> model;
    {
      Scope s(tracer, "core.job_setup");
      train_sampler.emplace(dst_lo, dst_hi, tc.seed + 1);
      val_sampler = core::MakeEdgeSampler(tc.negative_sampling, graph,
                                          split.train_events, dst_lo, dst_hi,
                                          tc.seed + 2);
      test_sampler = core::MakeEdgeSampler(tc.negative_sampling, graph,
                                           split.train_events, dst_lo, dst_hi,
                                           tc.seed + 3);
      if (tc.mrr_k > 0 && dst_hi - dst_lo >= 2) {
        core::CandidateConfig config;
        config.k = tc.mrr_k;
        config.historical_fraction = tc.mrr_historical_fraction;
        candidates = std::make_unique<core::CandidateSampler>(
            graph, split.train_events, dst_lo, dst_hi, config);
      }
      models::ModelConfig model_config = job.model_config;
      model_config.seed = tc.seed + 17;
      model = models::CreateModel(job.kind, &graph, model_config,
                                  job.num_users);
    }
    tensor::Adam optimizer(model->Parameters(), tc.learning_rate);
    const std::vector<models::Batch> train_batches =
        core::MakeBatches(graph, split.train_events, tc.batch_size);
    core::EarlyStopMonitor monitor(tc.patience, tc.tolerance);
    const std::vector<tensor::Var> params = model->Parameters();
    const bool checkpointing = !tc.checkpoint_path.empty();
    robustness::CheckpointLineage lineage(tc.checkpoint_path,
                                          tc.checkpoint_generations);
    std::string best_params;
    core::SettingMetrics val_metrics;
    double train_seconds = 0.0;

    // The trainer's epoch-boundary snapshot, field for field, so the
    // checkpoint bytes match too.
    auto snapshot_now = [&] {
      robustness::JobCheckpoint s;
      s.seed = tc.seed;
      s.learning_rate = optimizer.learning_rate();
      s.monitor = monitor.state();
      s.val_auc = val_metrics.auc;
      s.val_ap = val_metrics.ap;
      s.val_count = val_metrics.count;
      s.model_rng = model->SaveRngState();
      s.sampler_rng = train_sampler->SaveRngState();
      s.params = tensor::SnapshotParameters(params);
      s.adam = optimizer.SnapshotState();
      s.best_params = best_params;
      return s;
    };
    robustness::JobCheckpoint rollback;
    {
      Scope s(tracer, "robustness.snapshot");
      rollback = snapshot_now();
    }

    for (int epoch = 0; epoch < tc.max_epochs; ++epoch) {
      Scope epoch_span(tracer, "core.epoch");
      const double epoch_start = NowSeconds();
      {
        Scope s(tracer, "models.reset");
        model->Reset();
      }
      model->set_training(true);
      model->SetNeighborFinder(&*train_finder);
      const Counters train_before = ReadCounters();
      {
        auto prepare = [&, epoch](int64_t bi) {
          Scope span(tracer, "pipeline.prepare", bi);
          pipeline::PreparedBatch pb;
          pb.index = bi;
          const models::Batch& pbatch = train_batches[static_cast<size_t>(bi)];
          const uint64_t seed = BatchSeed(tc.seed, epoch, bi);
          {
            Scope s(tracer, "core.negatives", bi);
            pb.negatives = train_sampler->SampleNegativesKeyed(
                tensor::SplitMix64(seed, 0), pbatch.srcs, pbatch.dsts);
          }
          Scope s(tracer, "models.prepare", bi);
          pb.inputs = model->PrepareBatch(pbatch, pb.negatives, seed);
          return pb;
        };
        std::optional<pipeline::BatchPrefetcher> prefetcher;
        {
          Scope s(tracer, "pipeline.start");
          prefetcher.emplace(static_cast<int64_t>(train_batches.size()),
                             tc.pipeline_depth, prepare, nullptr);
        }
        for (size_t i = 0; i < train_batches.size(); ++i) {
          // Declared before the tape scope so the step includes the rewind.
          Scope step(tracer, "core.train_step", static_cast<int64_t>(i));
          tensor::kernels::TapeScope tape_scope;
          pipeline::PreparedBatch pb;
          {
            Scope s(tracer, "pipeline.wait", static_cast<int64_t>(i));
            if (!prefetcher->Next(&pb)) {
              r.failure = "training prefetcher ended early";
              return r;
            }
          }
          const int64_t bi = pb.index;
          const models::Batch& batch = train_batches[static_cast<size_t>(bi)];
          tensor::Var pos, neg;
          {
            Scope s(tracer, "models.forward", bi);
            model->SetPreparedInputs(pb.inputs.get());
            pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
            neg = model->ScoreEdges(batch.srcs, pb.negatives, batch.ts);
            model->SetPreparedInputs(nullptr);
          }
          if (model->status() != models::ModelStatus::kOk) {
            r.failure = "model runtime error in training";
            return r;
          }
          tensor::Var loss;
          bool finite = true;
          {
            Scope s(tracer, "tensor.loss", bi);
            tensor::Tensor ones({pos->value.size()});
            ones.Fill(1.0f);
            tensor::Tensor zeros({neg->value.size()});
            loss = expr::ScalarMul(
                expr::Add(expr::Ex(tensor::BceWithLogits(pos, ones)),
                          expr::Ex(tensor::BceWithLogits(neg, zeros))),
                0.5f);
            finite = tensor::AllFinite(loss->value);
          }
          if (!finite) {
            r.failure = "non-finite loss";
            return r;
          }
          {
            Scope s(tracer, "tensor.optimizer", bi);
            optimizer.ZeroGrad();
          }
          {
            Scope s(tracer, "tensor.backward", bi);
            tensor::Backward(loss);
          }
          {
            Scope s(tracer, "tensor.optimizer", bi);
            finite = tensor::GradsFinite(params);
            if (finite) {
              tensor::ClipGradNorm(params, tc.grad_clip_norm);
              optimizer.Step();
              finite = tensor::ParamsFinite(params);
            }
          }
          if (!finite) {
            r.failure = "non-finite gradient or parameter";
            return r;
          }
          Scope s(tracer, "models.update_state", bi);
          model->UpdateState(batch);
        }
        const pipeline::PipelineStats stats = prefetcher->stats();
        r.prefetch_batches += stats.batches;
        r.prefetch_hits += stats.prefetched;
        Scope s(tracer, "pipeline.drain");
        prefetcher.reset();
      }
      const Counters train_after = ReadCounters();
      r.train_events += static_cast<int64_t>(split.train_events.size());
      r.flops += Delta(train_before, train_after, obs::Counter::kKernelFlops);
      r.arena_bytes +=
          Delta(train_before, train_after, obs::Counter::kArenaBytes);
      r.arena_resets +=
          Delta(train_before, train_after, obs::Counter::kArenaResets);
      r.parallel_for_calls +=
          Delta(train_before, train_after, obs::Counter::kParallelForCalls);
      r.parallel_for_chunks +=
          Delta(train_before, train_after, obs::Counter::kParallelForChunks);
      train_seconds += NowSeconds() - epoch_start;

      model->set_training(false);
      model->SetNeighborFinder(&*full_finder);
      PassScores val;
      {
        Scope s(tracer, "core.val_pass");
        TracedScorePass(tracer, model.get(), graph, split.val_events, tc,
                        *val_sampler, candidates.get(), tc.seed + 2, &val);
      }
      if (model->status() != models::ModelStatus::kOk) {
        r.failure = "model runtime error in validation";
        return r;
      }
      {
        Scope s(tracer, "core.metrics");
        val_metrics = PassMetrics(val);
      }
      if (candidates != nullptr) {
        Scope s(tracer, "core.rank");
        r.val_mrr = PassMrr(val);
      }
      bool stop = false;
      {
        Scope s(tracer, "core.early_stop");
        stop = monitor.Update(val_metrics.auc);
        if (monitor.rounds_without_improvement() == 0) {
          best_params = tensor::SnapshotParameters(params);
        }
      }
      {
        Scope s(tracer, "robustness.snapshot");
        rollback = snapshot_now();
      }
      if (checkpointing) {
        Scope s(tracer, "robustness.checkpoint");
        rollback.next_epoch = epoch + 1;
        rollback.epochs_run = epoch + 1;
        rollback.total_epoch_seconds = train_seconds;
        int64_t bytes = 0;
        if (!lineage.Save(rollback, &bytes)) {
          r.failure = "checkpoint save failed";
          return r;
        }
        r.checkpoint_bytes = bytes;
      }
      if (stop) break;
    }
    r.val_auc = val_metrics.auc;

    {
      Scope s(tracer, "core.restore_best");
      if (!best_params.empty() &&
          !tensor::RestoreParameters(best_params, params)) {
        r.failure = "best-epoch restore failed";
        return r;
      }
    }
    model->set_training(false);
    model->SetNeighborFinder(&*full_finder);
    {
      Scope s(tracer, "models.reset");
      model->Reset();
    }
    {
      Scope replay(tracer, "core.replay_state");
      std::vector<int64_t> pre_test(static_cast<size_t>(split.val_end));
      for (int64_t i = 0; i < split.val_end; ++i) {
        pre_test[static_cast<size_t>(i)] = i;
      }
      const std::vector<models::Batch> batches =
          core::MakeBatches(graph, pre_test, tc.batch_size);
      for (size_t i = 0; i < batches.size(); ++i) {
        tensor::kernels::TapeScope tape_scope;
        Scope s(tracer, "models.eval_update_state", static_cast<int64_t>(i));
        model->UpdateState(batches[i]);
      }
    }
    PassScores test;
    {
      Scope s(tracer, "core.test_pass");
      TracedScorePass(tracer, model.get(), graph, split.test_events, tc,
                      *test_sampler, candidates.get(), tc.seed + 3, &test);
    }
    if (model->status() != models::ModelStatus::kOk) {
      r.failure = "model runtime error in test";
      return r;
    }
    {
      Scope s(tracer, "core.metrics");
      r.test_auc = PassMetrics(test).auc;
    }
    r.test_scores = static_cast<int64_t>(split.test_events.size()) *
                    (2 + (candidates != nullptr ? candidates->k() : 0));
    if (candidates != nullptr) {
      Scope s(tracer, "core.rank");
      r.test_mrr = PassMrr(test);
    }
    if (checkpointing) {
      Scope s(tracer, "robustness.remove");
      if (!lineage.Remove()) r.failure = "checkpoint removal failed";
    }
  }
  r.wall_seconds = NowSeconds() - job_start;
  const Counters job_after = ReadCounters();
  r.collisions_rejected = Delta(job_before, job_after,
                                obs::Counter::kSamplerCollisionsRejected);
  r.pool_fallbacks =
      Delta(job_before, job_after, obs::Counter::kSamplerPoolFallbacks);
  r.io_retries = Delta(job_before, job_after, obs::Counter::kIoRetries);
  return r;
}

// --- Untraced jobs ----------------------------------------------------------

struct Setup {
  graph::TemporalGraph graph;
  std::vector<double> generate_seconds;
  std::vector<double> setup_seconds;
  /// Positive events a job processes: training and validation events every
  /// epoch, then the test events. Dividing job time by it cancels the
  /// seed-to-seed spread of the training split (the masked unseen nodes of
  /// a Zipf graph carry a fifth to a third of the training window).
  int64_t job_events = 0;
};

/// Builds the workload's graph `reps` times (Generate + InitNodeFeatures)
/// and keeps the last one.
Setup RunSetup(const Workload& w, uint64_t seed, int reps) {
  Setup setup;
  const datagen::SyntheticConfig config = GraphConfigFor(w, seed);
  for (int i = 0; i < reps; ++i) {
    const double start = NowSeconds();
    graph::TemporalGraph g = datagen::Generate(config);
    const double generated = NowSeconds();
    g.InitNodeFeatures(kFeatureDim);
    const double done = NowSeconds();
    setup.generate_seconds.push_back(generated - start);
    setup.setup_seconds.push_back(done - start);
    setup.graph = std::move(g);
  }
  const core::LinkPredictionSplit split =
      core::SplitLinkPrediction(setup.graph, core::SplitConfig{});
  setup.job_events =
      w.epochs * static_cast<int64_t>(split.train_events.size() +
                                      split.val_events.size()) +
      static_cast<int64_t>(split.test_events.size());
  return setup;
}

struct JobOutcome {
  double job_seconds = 0.0;
  double train_events_per_s = 0.0;
  double val_auc = 0.0;
  double val_mrr = 0.0;
  double test_auc = 0.0;
  double test_mrr = 0.0;
  /// Empty when every check passed.
  std::string failure;
};

/// Runs one job through RunLinkPrediction and checks its outputs.
JobOutcome RunJob(const Workload& w, const graph::TemporalGraph& g,
                  uint64_t seed, const std::string& checkpoint_dir) {
  const core::LinkPredictionJob job = MakeJob(w, g, seed, checkpoint_dir);
  JobOutcome o;
  const double start = NowSeconds();
  const core::LinkPredictionResult result = core::RunLinkPrediction(job);
  o.job_seconds = NowSeconds() - start;
  o.train_events_per_s = result.efficiency.train_events_per_second;
  o.val_auc = result.val_transductive.auc;
  o.val_mrr = result.val_ranking.mrr;
  const int transductive = static_cast<int>(core::Setting::kTransductive);
  o.test_auc = result.test[static_cast<size_t>(transductive)].auc;
  o.test_mrr = result.test_ranking[static_cast<size_t>(transductive)].mrr;

  if (result.status != models::ModelStatus::kOk) {
    o.failure = "status is not ok";
  } else if (!result.annotation.empty()) {
    o.failure = "annotation \"" + result.annotation + "\"";
  } else if (result.nan_retries > 0) {
    o.failure = "nan_retries = " + std::to_string(result.nan_retries);
  } else if (result.efficiency.epochs_run != w.epochs) {
    o.failure = "ran " + std::to_string(result.efficiency.epochs_run) +
                " epochs";
  } else if (o.test_auc < w.min_test_auc) {
    o.failure = "test_auc " + std::to_string(o.test_auc) + " below floor";
  } else if (w.mrr_k > 0 && o.test_mrr < kMinTestMrr) {
    o.failure = "test_mrr " + std::to_string(o.test_mrr) + " below floor";
  } else if (w.checkpoint) {
    std::error_code ec;
    if (result.efficiency.checkpoint_bytes <= 0) {
      o.failure = "no checkpoint was written";
    } else if (!std::filesystem::is_empty(checkpoint_dir, ec) || ec) {
      o.failure = "checkpoint files left behind";
    }
  }
  return o;
}

/// Repeats must be bit-identical in val AUC, test AUC and MRR.
std::string CompareRepeat(const JobOutcome& first, const JobOutcome& o) {
  if (!SameBits(first.val_auc, o.val_auc)) return "val_auc differs";
  if (!SameBits(first.test_auc, o.test_auc)) return "test_auc differs";
  if (!SameBits(first.val_mrr, o.val_mrr)) return "val_mrr differs";
  if (!SameBits(first.test_mrr, o.test_mrr)) return "test_mrr differs";
  return "";
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Every sample behind `value` (one for single measurements).
  std::vector<double> samples;
};

Metric MedianMetric(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples) {
  return Metric{name, unit, Median(samples), samples};
}

Metric Single(const std::string& name, const std::string& unit,
              double value) {
  return Metric{name, unit, value, {value}};
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("%-36s %16s  %-12s %s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g  %-12s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples.size() > 1) {
      for (const double s : m.samples) std::printf(" %.6g", s);
    }
    std::printf("\n");
  }
}

/// The result line: the last line of standard output.
void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Per-span-name totals of a finished trace.
struct LayerRow {
  int64_t count = 0;
  double total = 0.0;
  double self = 0.0;
};

std::map<std::string, LayerRow> LayerTable(
    const std::vector<Tracer::Span>& spans) {
  std::map<std::string, LayerRow> rows;
  for (const Tracer::Span& s : spans) {
    LayerRow& row = rows[s.name];
    ++row.count;
    row.total += s.seconds();
    row.self += s.seconds();
    if (s.parent >= 0) {
      rows[spans[static_cast<size_t>(s.parent)].name].self -= s.seconds();
    }
  }
  return rows;
}

/// Share of the training thread's epoch wall covered by the epochs' direct
/// child spans.
double EpochCoverage(const std::vector<Tracer::Span>& spans) {
  double epoch = 0.0;
  double covered = 0.0;
  for (const Tracer::Span& s : spans) {
    if (s.tid != 0) continue;
    const std::string name = s.name;
    if (name == "core.epoch") epoch += s.seconds();
    if (s.parent >= 0 &&
        std::string(spans[static_cast<size_t>(s.parent)].name) ==
            "core.epoch") {
      covered += s.seconds();
    }
  }
  return epoch > 0.0 ? covered / epoch : 0.0;
}

std::vector<double> StepMilliseconds(const std::vector<Tracer::Span>& spans) {
  std::vector<double> ms;
  for (const Tracer::Span& s : spans) {
    if (std::string(s.name) == "core.train_step") {
      ms.push_back(s.seconds() * 1e3);
    }
  }
  return ms;
}

/// Per-layer metrics of a traced replay, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const std::map<std::string, LayerRow>& rows,
                                 const std::vector<Tracer::Span>& spans,
                                 const ReplayResult& r, double generate_s,
                                 double untraced_job_s, double probe_gops) {
  auto total = [&](const char* name) {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : it->second.total;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const std::vector<double> steps = StepMilliseconds(spans);
  const double events = static_cast<double>(r.train_events);
  return {
      Single("datagen.generate_s", "s", generate_s),
      Single("core.split_s", "s", total("core.split")),
      Single("graph.index_build_s", "s", total("graph.index_build")),
      Single("core.metrics_s", "s", total("core.metrics")),
      Single("core.step_ms_p50", "ms",
             steps.empty() ? 0.0 : Quantile(steps, 0.5)),
      Single("core.step_ms_p90", "ms",
             steps.empty() ? 0.0 : Quantile(steps, 0.9)),
      Single("core.train_steps", "count", static_cast<double>(steps.size())),
      Single("models.forward_s", "s", total("models.forward")),
      Single("tensor.loss_s", "s", total("tensor.loss")),
      Single("tensor.backward_s", "s", total("tensor.backward")),
      Single("tensor.optimizer_s", "s", total("tensor.optimizer")),
      Single("models.update_state_s", "s", total("models.update_state")),
      Single("models.eval_update_state_s", "s",
             total("models.eval_update_state")),
      Single("models.prepare_s", "s", total("models.prepare")),
      Single("core.negatives_s", "s", total("core.negatives")),
      Single("pipeline.prepare_s", "s", total("pipeline.prepare")),
      Single("pipeline.wait_s", "s", total("pipeline.wait")),
      Single("pipeline.prefetch_hit_ratio", "ratio",
             ratio(static_cast<double>(r.prefetch_hits),
                   static_cast<double>(r.prefetch_batches))),
      Single("models.eval_forward_s", "s", total("models.eval_forward")),
      Single("models.score_candidates_s", "s",
             total("models.score_candidates")),
      Single("core.candidates_s", "s", total("core.candidates")),
      Single("core.rank_s", "s", total("core.rank")),
      Single("core.eval_scores_per_s", "scores/s",
             ratio(static_cast<double>(r.test_scores),
                   total("core.test_pass"))),
      Single("core.test_mrr", "mrr", r.test_mrr),
      Single("tensor.flops_per_event", "flops/event",
             ratio(static_cast<double>(r.flops), events)),
      Single("tensor.arena_bytes_per_event", "bytes/event",
             ratio(static_cast<double>(r.arena_bytes), events)),
      Single("tensor.arena_resets", "count",
             static_cast<double>(r.arena_resets)),
      Single("runtime.parallel_for_calls_per_event", "calls/event",
             ratio(static_cast<double>(r.parallel_for_calls), events)),
      Single("runtime.chunks_per_call", "chunks/call",
             ratio(static_cast<double>(r.parallel_for_chunks),
                   static_cast<double>(r.parallel_for_calls))),
      Single("robustness.snapshot_s", "s", total("robustness.snapshot")),
      Single("robustness.checkpoint_s", "s", total("robustness.checkpoint")),
      Single("robustness.checkpoint_bytes", "bytes",
             static_cast<double>(r.checkpoint_bytes)),
      Single("core.collisions_rejected", "count",
             static_cast<double>(r.collisions_rejected)),
      Single("core.pool_fallbacks", "count",
             static_cast<double>(r.pool_fallbacks)),
      Single("robustness.io_retries", "count",
             static_cast<double>(r.io_retries)),
      Single("machine.probe_gops", "Gop/s", probe_gops),
      Single("trace.coverage", "ratio", EpochCoverage(spans)),
      Single("trace.overhead_frac", "ratio",
             ratio(r.wall_seconds - untraced_job_s, untraced_job_s)),
  };
}

void PrintLayerTable(const std::map<std::string, LayerRow>& rows) {
  std::vector<std::pair<std::string, LayerRow>> sorted(rows.begin(),
                                                       rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, row] : sorted) {
    std::printf("%-28s %8lld %12.6f %12.6f\n", name.c_str(),
                static_cast<long long>(row.count), row.total, row.self);
  }
}

// --- Runs -------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  bool smoke = false;
};

/// Outcome of one traced run of a workload.
struct TraceOutcome {
  bool ok = false;
  std::vector<Metric> metrics;
};

/// Two untraced jobs, the second checked against the first; returns how
/// many failed. The traced replay is compared with, and timed against, the
/// second, so both run warm.
int RunUntracedPair(const Workload& w, const Setup& setup, uint64_t seed,
                    const std::string& checkpoint_dir, JobOutcome* second) {
  const JobOutcome first = RunJob(w, setup.graph, seed, checkpoint_dir);
  *second = RunJob(w, setup.graph, seed, checkpoint_dir);
  if (first.failure.empty() && second->failure.empty()) {
    second->failure = CompareRepeat(first, *second);
  }
  int failed = 0;
  for (const JobOutcome* o : {&first, static_cast<const JobOutcome*>(second)}) {
    if (o->failure.empty()) continue;
    ++failed;
    std::fprintf(stderr, "%s: untraced job failed: %s\n", w.name,
                 o->failure.c_str());
  }
  return failed;
}

/// The traced replay of the job `untraced` ran; writes
/// `out`/trace_<name>.json.
TraceOutcome RunTraced(const Workload& w, const Setup& setup, uint64_t seed,
                       const std::string& out,
                       const std::string& checkpoint_dir,
                       const JobOutcome& untraced, double probe_gops) {
  TraceOutcome t;
  const core::LinkPredictionJob job =
      MakeJob(w, setup.graph, seed, checkpoint_dir);
  obs::MetricRegistry::OverrideEnabledForTest(1);
  Tracer tracer;
  const ReplayResult replay = ReplayJob(job, &tracer);
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  const std::vector<Tracer::Span> spans = tracer.Finish();

  std::string failure = replay.failure;
  const std::pair<const char*, bool> same[] = {
      {"val_auc", SameBits(replay.val_auc, untraced.val_auc)},
      {"val_mrr", SameBits(replay.val_mrr, untraced.val_mrr)},
      {"test_auc", SameBits(replay.test_auc, untraced.test_auc)},
      {"test_mrr", SameBits(replay.test_mrr, untraced.test_mrr)}};
  for (const auto& [name, equal] : same) {
    if (failure.empty() && !equal) {
      failure = std::string("replay ") + name + " differs from untraced";
    }
  }
  const std::string path = out + "/trace_" + w.name + ".json";
  if (!io::AtomicReplace(path, TraceJson(spans, tracer.origin()))) {
    failure = "cannot write " + path;
  }
  const std::map<std::string, LayerRow> rows = LayerTable(spans);
  PrintLayerTable(rows);
  t.metrics = LayerMetrics(rows, spans, replay,
                           Median(setup.generate_seconds),
                           untraced.job_seconds, probe_gops);
  const double coverage = EpochCoverage(spans);
  if (failure.empty() && coverage < kMinCoverage) {
    failure = "trace covers " + std::to_string(coverage) +
              " of the epoch wall";
  }
  std::error_code ec;
  if (failure.empty() &&
      (!std::filesystem::is_empty(checkpoint_dir, ec) || ec)) {
    failure = "checkpoint files left behind by the replay";
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "%s: traced replay failed: %s\n", w.name,
                 failure.c_str());
  }
  std::fprintf(stderr,
               "%s: traced %.3f s vs untraced %.3f s, coverage %.4f, "
               "trace %s\n",
               w.name, replay.wall_seconds, untraced.job_seconds, coverage,
               path.c_str());
  t.ok = failure.empty();
  return t;
}

/// The --trace 0 run: medians of the end-to-end metrics over the jobs.
void RunMeasured(const Workload& w, const Options& opt,
                 const std::string& checkpoint_dir) {
  const Setup setup = RunSetup(w, opt.seed, kSetupReps);
  // probes[j] and probes[j + 1] bracket job j.
  std::vector<double> probes = {ProbeGops()};
  std::vector<JobOutcome> jobs;
  int failed = 0;
  const double start = NowSeconds();
  // Starts another job only while it should end within --seconds.
  while (static_cast<int>(jobs.size()) < kMinJobs ||
         NowSeconds() - start + jobs.back().job_seconds <= opt.seconds) {
    JobOutcome o = RunJob(w, setup.graph, opt.seed, checkpoint_dir);
    if (o.failure.empty() && !jobs.empty()) {
      o.failure = CompareRepeat(jobs.front(), o);
    }
    if (!o.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "%s job %zu failed: %s\n", w.name, jobs.size(),
                   o.failure.c_str());
    }
    probes.push_back(ProbeGops());
    std::fprintf(stderr,
                 "%s job %zu: %.3f s, %.1f train events/s, probe %.3f Gop/s\n",
                 w.name, jobs.size(), o.job_seconds, o.train_events_per_s,
                 probes.back());
    jobs.push_back(std::move(o));
  }
  std::vector<double> train, job, train_per_gop, job_per_gop, auc;
  for (size_t j = 0; j < jobs.size(); ++j) {
    // Each job's rates are divided by the machine's speed around that job.
    const double gops = (probes[j] + probes[j + 1]) / 2.0;
    train.push_back(jobs[j].train_events_per_s);
    job.push_back(static_cast<double>(setup.job_events) /
                  jobs[j].job_seconds);
    train_per_gop.push_back(train.back() / gops);
    job_per_gop.push_back(job.back() / gops);
    auc.push_back(jobs[j].test_auc);
  }
  const std::vector<Metric> metrics = {
      MedianMetric("train_events_per_gop", "events/Gop", train_per_gop),
      MedianMetric("job_events_per_gop", "events/Gop", job_per_gop),
      MedianMetric("setup_s", "s", setup.setup_seconds),
      Single("peak_rss_mb", "MB", core::MaxRssGb() * 1024.0),
      MedianMetric("test_auc", "auc", auc),
  };
  PrintMetrics(metrics);
  // The measured rates and probe readings behind the normalised ones.
  PrintMetrics({MedianMetric("raw.train_events_per_s", "events/s", train),
                MedianMetric("raw.job_events_per_s", "events/s", job),
                MedianMetric("raw.probe_gops", "Gop/s", probes)});
  PrintResult(failed == 0, static_cast<int>(jobs.size()), failed, metrics);
}

/// The --trace 1 run: per-layer metrics of the traced replay.
void RunTraceMode(const Workload& w, const Options& opt,
                  const std::string& checkpoint_dir) {
  const double probe_before = ProbeGops();
  const Setup setup = RunSetup(w, opt.seed, kSetupReps);
  JobOutcome untraced;
  int failed =
      RunUntracedPair(w, setup, opt.seed, checkpoint_dir, &untraced);
  const double probe = (probe_before + ProbeGops()) / 2.0;
  const TraceOutcome t = RunTraced(w, setup, opt.seed, opt.out,
                                   checkpoint_dir, untraced, probe);
  failed += t.ok ? 0 : 1;
  PrintMetrics(t.metrics);
  PrintResult(failed == 0, 3, failed, t.metrics);
}

/// --smoke: every workload at its smoke size, both paths.
int RunSmoke(const Options& opt) {
  int failed = 0;
  for (const Workload& full : kWorkloads) {
    const Workload w = SmokeSize(full);
    const std::string dir = opt.out + "/ckpt-smoke-" + w.name;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const Setup setup = RunSetup(w, opt.seed, 1);
    JobOutcome untraced;
    const int failed_jobs =
        RunUntracedPair(w, setup, opt.seed, dir, &untraced);
    const bool ok =
        RunTraced(w, setup, opt.seed, opt.out, dir, untraced, ProbeGops()).ok &&
        failed_jobs == 0;
    std::filesystem::remove_all(dir, ec);
    std::printf("smoke %-12s %s  test_auc %.4f  test_mrr %.4f  %.2f s/job\n",
                w.name, ok ? "ok  " : "FAIL", untraced.test_auc,
                untraced.test_mrr, untraced.job_seconds);
    if (!ok) ++failed;
  }
  std::printf("smoke: %d of %zu workloads failed\n", failed,
              std::size(kWorkloads));
  return failed == 0 ? 0 : 1;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string arg = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      opt->workload = arg;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(arg.c_str(), &rest, 10);
      if (*rest != '\0') return false;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(arg.c_str(), &rest);
      if (*rest != '\0' || opt->seconds < 0.0) return false;
    } else if (flag == "--trace") {
      if (arg != "0" && arg != "1") return false;
      opt->trace = arg == "1";
    } else if (flag == "--out") {
      opt->out = arg;
    } else {
      return false;
    }
  }
  return !opt->out.empty() && (opt->smoke || !opt->workload.empty());
}

int Main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "bench_perf: %s is set; it changes the measured "
                   "program, unset it\n",
                   name);
      return 2;
    }
  }
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: bench_perf --workload W --seed S --seconds N "
                 "--trace 0|1 --out DIR\n"
                 "       bench_perf --smoke --out DIR\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out, ec);
  if (ec) {
    std::fprintf(stderr, "bench_perf: cannot create %s\n", opt.out.c_str());
    return 2;
  }
  runtime::ThreadPool::Global().SetNumThreads(kThreads);
  if (opt.smoke) return RunSmoke(opt);

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_perf: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  const std::string checkpoint_dir = opt.out + "/ckpt-" + workload->name +
                                     "-" + std::to_string(opt.seed);
  std::filesystem::create_directories(checkpoint_dir, ec);
  if (opt.trace) {
    RunTraceMode(*workload, opt, checkpoint_dir);
  } else {
    RunMeasured(*workload, opt, checkpoint_dir);
  }
  std::filesystem::remove_all(checkpoint_dir, ec);
  return 0;
}

}  // namespace
}  // namespace benchtemp::perfbench

int main(int argc, char** argv) {
  return benchtemp::perfbench::Main(argc, argv);
}
