// Reproduces Table 3 (link-prediction ROC AUC) and Table 10 (AP) of the
// paper: 7 TGNN models x 15 benchmark datasets x 4 settings
// (Transductive / Inductive / Inductive New-Old / Inductive New-New).
//
// "**" marks the best cell, "_" the second best (not shown when trailing by
// > 0.05), "*" a runtime error (TGAT on UNTrade), "x" non-convergence —
// the paper's own annotations.
//
// The grid runs on the fault-tolerant sweep runner: every (dataset, model)
// cell is one crash-isolated job with an optional per-job deadline
// (BENCHTEMP_JOB_DEADLINE) and — when BENCHTEMP_MANIFEST is set — journal
// based resume: re-running after a kill skips completed cells, restarts the
// interrupted one from its epoch checkpoint, and produces a CSV identical
// to an uninterrupted run (BENCHTEMP_CSV_OUT).

#include <deque>

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table3_lp_auc");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  const robustness::SweepOptions sweep_options = bench::SweepOptionsFromEnv();
  std::printf(
      "Table 3 / Table 10 reproduction: link prediction on the 15 benchmark "
      "datasets\n(runs=%d, feature_dim=%lld; paper settings: 3 runs, dim "
      "172)\n\n",
      grid.runs, static_cast<long long>(grid.feature_dim));

  std::vector<std::string> model_names, dataset_names;
  const std::vector<models::ModelKind> kinds =
      bench::SelectedModels(models::PaperModels());
  for (models::ModelKind kind : kinds) {
    model_names.push_back(models::ModelKindName(kind));
  }

  // Jobs hold references to their dataset spec and graph, so both live in
  // containers with stable addresses for the whole sweep.
  const std::vector<datagen::DatasetSpec> specs =
      bench::SelectedDatasets(datagen::MainDatasets());
  std::deque<graph::TemporalGraph> graphs;
  std::vector<robustness::SweepJob> jobs;
  for (const datagen::DatasetSpec& spec : specs) {
    dataset_names.push_back(spec.name);
    graphs.push_back(bench::LoadBenchmark(spec, grid));
    for (models::ModelKind kind : kinds) {
      jobs.push_back(bench::MakeLpSweepJob(spec, graphs.back(), kind, grid,
                                           sweep_options));
    }
  }

  core::Leaderboard board;
  const robustness::SweepReport report =
      robustness::RunSweep(jobs, sweep_options, &board);
  std::fprintf(stderr, "sweep: %d ran, %d resumed from manifest, %d failed\n",
               report.ran, report.skipped, report.failed);

  const std::string csv_out = bench::EnvStr("BENCHTEMP_CSV_OUT");
  if (!csv_out.empty() && !board.WriteCsv(csv_out)) {
    std::fprintf(stderr, "cannot write %s\n", csv_out.c_str());
    return 1;
  }

  for (int s = 0; s < 4; ++s) {
    const char* setting = core::SettingName(static_cast<core::Setting>(s));
    std::printf("=== ROC AUC, %s ===\n", setting);
    std::printf("%s\n",
                board
                    .FormatTable(model_names, dataset_names,
                                 "link_prediction", setting, "AUC")
                    .c_str());
  }
  for (int s = 0; s < 4; ++s) {
    const char* setting = core::SettingName(static_cast<core::Setting>(s));
    std::printf("=== AP (Table 10), %s ===\n", setting);
    std::printf("%s\n",
                board
                    .FormatTable(model_names, dataset_names,
                                 "link_prediction", setting, "AP")
                    .c_str());
  }
  return 0;
}
