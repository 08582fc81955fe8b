#ifndef BENCHTEMP_BENCH_BENCH_COMMON_H_
#define BENCHTEMP_BENCH_BENCH_COMMON_H_

// Shared harness of the table/figure reproduction binaries.
//
// Environment knobs (all optional):
//   BENCHTEMP_RUNS        repeated runs per job (paper: 3; default 1)
//   BENCHTEMP_FEATURE_DIM standardized node feature dim (paper: 172;
//                         default 48 to keep the CPU grid tractable)
//   BENCHTEMP_EPOCHS      max epochs for the fast models (default 8)
//   BENCHTEMP_WALK_EPOCHS max epochs for CAWN/NeurTW (default 4 — these are
//                         the models the paper reports as slow /
//                         non-converging, so their budget is tighter)
//   BENCHTEMP_QUICK=1     shrink everything further (smoke-test mode)
//   BENCHTEMP_DATASETS    comma-separated dataset filter (default: all)
//   BENCHTEMP_MODELS      comma-separated model filter, paper names
//                         (default: all)
//   BENCHTEMP_PIPELINE    training-pipeline prefetch depth (default 2;
//                         0 = synchronous — bit-identical either way)
//
// Robustness knobs (see DESIGN.md "Failure model"):
//   BENCHTEMP_MANIFEST     sweep journal path; an interrupted run restarts
//                          where it died and produces an identical CSV
//   BENCHTEMP_CSV_OUT      leaderboard CSV output path
//   BENCHTEMP_JOB_DEADLINE per-job time limit in seconds (unset/0 = none);
//                          a job past it is annotated "x" and reports no
//                          metrics; a negative or non-numeric value is fatal
//   BENCHTEMP_FAULTS       fault-injection spec (FaultInjector grammar)
//
// Observability knobs (see DESIGN.md "Observability"):
//   BENCHTEMP_METRICS      "1"/"on" turns collection on; any other
//                          non-empty value is fatal
//   BENCHTEMP_BENCH_DIR    directory for the BENCH_<name>.json artifact
//                          every bench binary emits (default: cwd)

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "base/check.h"
#include "core/evaluator.h"
#include "core/leaderboard.h"
#include "core/trainer.h"
#include "datagen/catalog.h"
#include "graph/walks.h"
#include "models/factory.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "robustness/sweep.h"
#include "runtime/thread_pool.h"

namespace benchtemp::bench {

/// Declared first in every bench main: emits the schema-versioned
/// BENCH_<name>.json artifact as the binary exits.
class BenchArtifact {
 public:
  explicit BenchArtifact(const char* name)
      : name_(name), start_(obs::NowSeconds()) {
    // Reads the BENCHTEMP_METRICS switch now, so a malformed value stops
    // the bench before any work rather than at its first counter.
    (void)obs::MetricRegistry::Enabled();
  }
  ~BenchArtifact() {
    obs::EmitBenchArtifacts(name_, obs::NowSeconds() - start_,
                            core::MaxRssGb());
  }
  BenchArtifact(const BenchArtifact&) = delete;
  BenchArtifact& operator=(const BenchArtifact&) = delete;

 private:
  std::string name_;
  double start_;
};

/// Integer knob: `fallback` when unset, 0 when set but empty; a value
/// that is not an integer is fatal.
inline int EnvInt(const char* name, int fallback) {
  const bool set = std::getenv(name) != nullptr;
  return base::EnvIntOrDie(name, set ? 0 : fallback);
}

inline std::string EnvStr(const char* name,
                          const std::string& fallback = "") {
  const char* value = std::getenv(name);
  return value != nullptr ? std::string(value) : fallback;
}

/// Grid-wide settings derived from the environment.
struct GridConfig {
  int runs = 1;
  int64_t feature_dim = 48;
  int max_epochs_fast = 8;
  int max_epochs_walk = 4;
  int batch_size = 200;
  float learning_rate = 1e-3f;
  bool quick = false;
};

inline GridConfig DefaultGrid() {
  GridConfig grid;
  grid.quick = EnvInt("BENCHTEMP_QUICK", 0) != 0;
  grid.runs = EnvInt("BENCHTEMP_RUNS", grid.quick ? 1 : 2);
  grid.feature_dim = EnvInt("BENCHTEMP_FEATURE_DIM", grid.quick ? 16 : 48);
  grid.max_epochs_fast = EnvInt("BENCHTEMP_EPOCHS", grid.quick ? 2 : 8);
  grid.max_epochs_walk = EnvInt("BENCHTEMP_WALK_EPOCHS", grid.quick ? 1 : 4);
  return grid;
}

inline bool IsWalkModel(models::ModelKind kind) {
  return kind == models::ModelKind::kCawn ||
         kind == models::ModelKind::kNeurTw;
}

/// Model hyperparameters for one (model, dataset) job; carries the
/// catalog's per-dataset quirks (TGAT window, overflow-safe walk bias).
inline models::ModelConfig ModelConfigFor(models::ModelKind kind,
                                          const datagen::DatasetSpec& spec,
                                          const GridConfig& grid) {
  models::ModelConfig config;
  config.embedding_dim = grid.quick ? 12 : 24;
  config.time_dim = grid.quick ? 8 : 16;
  config.num_neighbors = grid.quick ? 4 : 8;
  config.num_layers = 2;
  if (kind == models::ModelKind::kTgat) {
    // TGAT's two-layer recursion touches K^2 neighbors per query; a smaller
    // fan-out keeps the CPU grid tractable (the paper's GPU grid uses more,
    // and still reports TGAT among the slower fast-models).
    config.num_neighbors = grid.quick ? 3 : 5;
  }
  config.num_heads = 2;
  config.num_walks = grid.quick ? 2 : 3;
  config.walk_length = 2;
  if (kind == models::ModelKind::kTgat) {
    config.tgat_time_window = spec.tgat_time_window;
  }
  if (kind == models::ModelKind::kNeurTw && spec.coarse_granularity) {
    // The paper's Appendix C Eq. (2)/(3) overflow-safe sampling weights.
    config.walk_bias = graph::WalkBias::kLinearSafe;
  }
  return config;
}

inline core::TrainConfig TrainConfigFor(models::ModelKind kind,
                                        const GridConfig& grid,
                                        uint64_t seed) {
  core::TrainConfig tc;
  tc.max_epochs = IsWalkModel(kind) ? grid.max_epochs_walk
                                    : grid.max_epochs_fast;
  tc.batch_size = grid.batch_size;
  tc.learning_rate = grid.learning_rate;
  tc.seed = seed;
  return tc;
}

/// The catalog job of one (model, dataset) cell: a bipartite dataset's
/// user block, the grid's model and training configs. A bench then sets
/// only the field it studies.
template <typename Job>
Job CatalogJob(const datagen::DatasetSpec& spec, const graph::TemporalGraph& g,
               models::ModelKind kind, const GridConfig& grid, uint64_t seed) {
  Job job;
  job.graph = &g;
  job.num_users = spec.config.num_items > 0 ? spec.config.num_users : 0;
  job.kind = kind;
  job.model_config = ModelConfigFor(kind, spec, grid);
  job.train_config = TrainConfigFor(kind, grid, seed);
  return job;
}

inline core::LinkPredictionJob LpJob(const datagen::DatasetSpec& spec,
                                     const graph::TemporalGraph& g,
                                     models::ModelKind kind,
                                     const GridConfig& grid, uint64_t seed) {
  return CatalogJob<core::LinkPredictionJob>(spec, g, kind, grid, seed);
}

/// The node-classification job also pretrains the walk models for one
/// epoch and every other model for three.
inline core::NodeClassificationJob NcJob(const datagen::DatasetSpec& spec,
                                         const graph::TemporalGraph& g,
                                         models::ModelKind kind,
                                         const GridConfig& grid,
                                         uint64_t seed) {
  core::NodeClassificationJob job =
      CatalogJob<core::NodeClassificationJob>(spec, g, kind, grid, seed);
  job.pretrain_epochs = IsWalkModel(kind) ? 1 : 3;
  return job;
}

/// Appends one link-prediction job's efficiency to the metrics registry's
/// run records (the `runs` rows of BENCH_<name>.json) when collection is on.
inline void AppendRunRecord(models::ModelKind kind,
                            const datagen::DatasetSpec& spec,
                            const core::LinkPredictionResult& result) {
  if (!obs::MetricRegistry::Enabled()) return;
  const core::EfficiencyStats& eff = result.efficiency;
  obs::RunRecord record;
  record.model = models::ModelKindName(kind);
  record.dataset = spec.name;
  record.task = "link_prediction";
  record.epochs_run = eff.epochs_run;
  record.nan_retries = result.nan_retries;
  record.seconds_per_epoch = eff.seconds_per_epoch;
  record.retried_epoch_seconds = eff.retried_epoch_seconds;
  record.train_events_per_second = eff.train_events_per_second;
  record.eval_events_per_second = eff.eval_events_per_second;
  record.state_bytes = eff.state_bytes;
  record.parameter_bytes = eff.parameter_bytes;
  record.checkpoint_bytes = eff.checkpoint_bytes;
  record.phase_seconds = eff.phase_seconds;
  obs::MetricRegistry::Global().AppendRun(record);
}

/// Aggregated (mean ± std over runs) link-prediction outcome.
struct AggregatedLp {
  core::MeanStd auc[4];
  core::MeanStd ap[4];
  std::string annotation;
  /// Efficiency of the last run (efficiency is deterministic enough).
  core::EfficiencyStats efficiency;
};

inline AggregatedLp RunAggregatedLp(
    const datagen::DatasetSpec& spec, const graph::TemporalGraph& g,
    models::ModelKind kind, const GridConfig& grid, double deadline = 0.0,
    const std::string& checkpoint_prefix = "") {
  AggregatedLp agg;
  std::vector<double> auc[4], ap[4];
  for (int run = 0; run < grid.runs; ++run) {
    core::LinkPredictionJob job = LpJob(spec, g, kind, grid, 1000 + 13 * run);
    job.train_config.deadline = deadline;
    if (!checkpoint_prefix.empty()) {
      job.train_config.checkpoint_path =
          checkpoint_prefix + ".run" + std::to_string(run) + ".ckpt";
    }
    const core::LinkPredictionResult result = core::RunLinkPrediction(job);
    if (!result.annotation.empty()) agg.annotation = result.annotation;
    if (result.status != models::ModelStatus::kOk) return agg;
    // A job past its deadline or diverged reports no test metrics
    // (count == 0).
    if (result.test[0].count == 0) return agg;
    for (int s = 0; s < 4; ++s) {
      auc[s].push_back(result.test[s].auc);
      ap[s].push_back(result.test[s].ap);
    }
    agg.efficiency = result.efficiency;
    AppendRunRecord(kind, spec, result);
  }
  for (int s = 0; s < 4; ++s) {
    agg.auc[s] = core::Summarize(auc[s]);
    agg.ap[s] = core::Summarize(ap[s]);
  }
  return agg;
}

/// Aggregated (mean ± std over runs) node-classification outcome.
struct AggregatedNc {
  core::MeanStd auc, accuracy, precision, recall, f1;
  std::string annotation;
  /// Efficiency of the last run.
  core::EfficiencyStats efficiency;
};

/// Runs `grid.runs` node-classification jobs, run r on seed
/// `first_seed + seed_step * r`. A failed run (annotation "*" or "x")
/// ends the aggregate with its annotation and no metrics.
inline AggregatedNc RunAggregatedNc(const datagen::DatasetSpec& spec,
                                    const graph::TemporalGraph& g,
                                    models::ModelKind kind,
                                    const GridConfig& grid,
                                    uint64_t first_seed, uint64_t seed_step) {
  AggregatedNc agg;
  std::vector<double> auc, accuracy, precision, recall, f1;
  for (int run = 0; run < grid.runs; ++run) {
    const core::NodeClassificationResult result = core::RunNodeClassification(
        NcJob(spec, g, kind, grid, first_seed + seed_step * run));
    if (!result.annotation.empty()) {
      agg.annotation = result.annotation;
      return agg;
    }
    auc.push_back(result.test_auc);
    accuracy.push_back(result.accuracy);
    precision.push_back(result.precision_weighted);
    recall.push_back(result.recall_weighted);
    f1.push_back(result.f1_weighted);
    agg.efficiency = result.efficiency;
  }
  agg.auc = core::Summarize(auc);
  agg.accuracy = core::Summarize(accuracy);
  agg.precision = core::Summarize(precision);
  agg.recall = core::Summarize(recall);
  agg.f1 = core::Summarize(f1);
  return agg;
}

/// One job's efficiency cells, as every efficiency table prints them.
struct EfficiencyCells {
  std::string runtime;     // seconds per epoch
  std::string epochs;      // epochs to convergence, "x" when not converged
  std::string ram;         // peak RSS, GB
  std::string state;       // model state + parameters, MB
  std::string throughput;  // training events per second
};

/// Formats `eff`; a job that could not run (annotation "*") reads "*" in
/// every cell.
inline EfficiencyCells FormatEfficiency(const core::EfficiencyStats& eff,
                                        const std::string& annotation) {
  if (annotation == "*") return {"*", "*", "*", "*", "*"};
  const auto format = [](const char* spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), spec, value);
    return std::string(buf);
  };
  EfficiencyCells cells;
  cells.runtime = format("%.4g", eff.seconds_per_epoch);
  cells.epochs = eff.converged ? std::to_string(eff.best_epoch + 1) : "x";
  cells.ram = format("%.2f", eff.max_rss_gb);
  cells.state =
      format("%.4g", static_cast<double>(eff.state_bytes +
                                         eff.parameter_bytes) /
                         (1024.0 * 1024.0));
  cells.throughput = format("%.0f", eff.train_events_per_second);
  return cells;
}

/// One dataset's efficiency cells, one per model.
struct EfficiencyRow {
  std::string dataset;
  std::vector<EfficiencyCells> cells;
};

/// One block of an efficiency table: its title and the cell it shows.
struct EfficiencyBlock {
  const char* title;
  std::string EfficiencyCells::*field;
};

/// Prints each block after a blank line: a "=== title ===" line, a header
/// with a column per model, then the block's cell of each row.
inline void PrintEfficiencyBlocks(const std::vector<models::ModelKind>& kinds,
                                  const std::vector<EfficiencyRow>& rows,
                                  const std::vector<EfficiencyBlock>& blocks) {
  for (const EfficiencyBlock& block : blocks) {
    std::printf("\n=== %s ===\n%-12s", block.title, "Dataset");
    for (models::ModelKind kind : kinds) {
      std::printf("%12s", models::ModelKindName(kind));
    }
    std::printf("\n");
    for (const EfficiencyRow& row : rows) {
      std::printf("%-12s", row.dataset.c_str());
      for (const EfficiencyCells& cells : row.cells) {
        std::printf("%12s", (cells.*block.field).c_str());
      }
      std::printf("\n");
    }
  }
}

/// Runs `fn(kinds[i], i)` for every model of a sweep concurrently on the
/// runtime thread pool (one task per model; each job's nested kernel
/// parallelism degrades to serial inside its worker). Jobs must write only
/// their own slot `i` of any result buffer — push to the leaderboard
/// serially afterwards so row order stays deterministic. Thread-safe
/// shared sinks (Leaderboard::Add) may also be used directly.
template <typename Fn>
inline void ForEachModelParallel(const std::vector<models::ModelKind>& kinds,
                                 Fn&& fn) {
  runtime::ParallelFor(
      0, static_cast<int64_t>(kinds.size()), /*grain=*/1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) fn(kinds[static_cast<size_t>(i)], i);
      });
}

/// Leaderboard rows of one aggregated result under all four settings.
inline std::vector<core::LeaderboardRecord> LpRecords(
    const std::string& model, const std::string& dataset,
    const AggregatedLp& agg, const std::string& metric) {
  std::vector<core::LeaderboardRecord> records;
  for (int s = 0; s < 4; ++s) {
    core::LeaderboardRecord record;
    record.model = model;
    record.dataset = dataset;
    record.task = "link_prediction";
    record.setting = core::SettingName(static_cast<core::Setting>(s));
    record.metric = metric;
    const core::MeanStd& ms = metric == "AUC" ? agg.auc[s] : agg.ap[s];
    record.mean = ms.mean;
    record.std = ms.std;
    record.annotation = agg.annotation;
    records.push_back(std::move(record));
  }
  return records;
}

/// Adds one aggregated result to a leaderboard under all four settings.
inline void PushToLeaderboard(core::Leaderboard* board,
                              const std::string& model,
                              const std::string& dataset,
                              const AggregatedLp& agg,
                              const std::string& metric) {
  for (core::LeaderboardRecord& record : LpRecords(model, dataset, agg,
                                                   metric)) {
    board->Add(std::move(record));
  }
}

/// Sweep options from the environment (manifest path, per-job deadline).
inline robustness::SweepOptions SweepOptionsFromEnv() {
  robustness::SweepOptions options;
  options.manifest_path = EnvStr("BENCHTEMP_MANIFEST");
  options.job_deadline_seconds = base::EnvDoubleOrDie(
      "BENCHTEMP_JOB_DEADLINE", 0.0, 0.0,
      std::numeric_limits<double>::infinity());
  return options;
}

/// BENCHTEMP_MRR_HIST_FRAC: the historical share of each ranking candidate
/// set, in [0, 1] (default 0.5).
inline double MrrHistoricalFractionFromEnv() {
  return base::EnvDoubleOrDie("BENCHTEMP_MRR_HIST_FRAC", 0.5, 0.0, 1.0);
}

/// Builds one fault-tolerant sweep job for a (dataset, model) cell: runs
/// the aggregated link-prediction grid under the sweep's deadline and
/// returns its AUC + AP rows. When the sweep keeps a manifest, the job also
/// checkpoints each run next to it (removed on success) so a killed sweep
/// resumes mid-job instead of from the job's start.
inline robustness::SweepJob MakeLpSweepJob(
    const datagen::DatasetSpec& spec, const graph::TemporalGraph& g,
    models::ModelKind kind, const GridConfig& grid,
    const robustness::SweepOptions& options) {
  robustness::SweepJob job;
  job.model = models::ModelKindName(kind);
  job.dataset = spec.name;
  job.key = spec.name + "/" + job.model;
  for (int s = 0; s < 4; ++s) {
    job.settings.push_back(core::SettingName(static_cast<core::Setting>(s)));
  }
  job.metrics = {"AUC", "AP"};
  std::string checkpoint_prefix;
  if (!options.manifest_path.empty()) {
    checkpoint_prefix = options.manifest_path + "." + spec.name + "." +
                        job.model;
  }
  job.run = [&spec, &g, kind, grid, checkpoint_prefix](double deadline) {
    const AggregatedLp agg =
        RunAggregatedLp(spec, g, kind, grid, deadline, checkpoint_prefix);
    std::vector<core::LeaderboardRecord> records =
        LpRecords(models::ModelKindName(kind), spec.name, agg, "AUC");
    for (core::LeaderboardRecord& r :
         LpRecords(models::ModelKindName(kind), spec.name, agg, "AP")) {
      records.push_back(std::move(r));
    }
    std::fprintf(stderr, "done %s / %s%s\n", spec.name.c_str(),
                 models::ModelKindName(kind), agg.annotation.c_str());
    return records;
  };
  return job;
}

/// Datasets selected by the BENCHTEMP_DATASETS env var (comma-separated
/// names); empty selection = everything.
inline std::vector<datagen::DatasetSpec> SelectedDatasets(
    const std::vector<datagen::DatasetSpec>& all) {
  const char* filter = std::getenv("BENCHTEMP_DATASETS");
  if (filter == nullptr || filter[0] == '\0') return all;
  std::vector<datagen::DatasetSpec> out;
  const std::string list = std::string(",") + filter + ",";
  for (const datagen::DatasetSpec& spec : all) {
    if (list.find("," + spec.name + ",") != std::string::npos) {
      out.push_back(spec);
    }
  }
  return out;
}

/// Models selected by the BENCHTEMP_MODELS env var (comma-separated paper
/// names, e.g. "TGN,TGAT"); empty selection = everything. Mirrors
/// SelectedDatasets so CI can cut a sweep down to one (model, dataset)
/// cell.
inline std::vector<models::ModelKind> SelectedModels(
    const std::vector<models::ModelKind>& all) {
  const char* filter = std::getenv("BENCHTEMP_MODELS");
  if (filter == nullptr || filter[0] == '\0') return all;
  std::vector<models::ModelKind> out;
  const std::string list = std::string(",") + filter + ",";
  for (const models::ModelKind kind : all) {
    if (list.find(std::string(",") + models::ModelKindName(kind) + ",") !=
        std::string::npos) {
      out.push_back(kind);
    }
  }
  return out;
}

/// Loads a catalog dataset and applies the benchmark feature
/// standardization at the grid's dimension.
inline graph::TemporalGraph LoadBenchmark(const datagen::DatasetSpec& spec,
                                          const GridConfig& grid) {
  graph::TemporalGraph g = datagen::LoadDataset(spec);
  g.InitNodeFeatures(grid.feature_dim);
  return g;
}

}  // namespace benchtemp::bench

#endif  // BENCHTEMP_BENCH_BENCH_COMMON_H_
