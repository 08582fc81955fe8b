// Reproduces the new-dataset appendix study: Table 17 (AUC, with the
// Average Rank aggregation over the four large-scale datasets), Table 18
// (AP), Table 19 (node classification on the eBay datasets), and Tables
// 20/21 (efficiency on the new datasets).

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table17_new_datasets");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf("Table 17/18/19/20/21 reproduction: the six new datasets\n\n");

  core::Leaderboard auc_board, ap_board;
  std::vector<std::string> model_names, dataset_names;
  const std::vector<std::string> large = {"eBay-Large", "DGraphFin",
                                          "YouTubeReddit-Large",
                                          "Taobao-Large"};
  for (models::ModelKind kind : models::PaperModels()) {
    model_names.push_back(models::ModelKindName(kind));
  }
  std::vector<bench::EfficiencyRow> efficiency;

  const std::vector<models::ModelKind> kinds = models::PaperModels();
  for (const datagen::DatasetSpec& spec :
       bench::SelectedDatasets(datagen::NewDatasets())) {
    dataset_names.push_back(spec.name);
    graph::TemporalGraph g = bench::LoadBenchmark(spec, grid);
    // Per-model jobs run concurrently on the runtime pool; each fills its
    // own slot and the leaderboard rows are pushed serially afterwards.
    std::vector<bench::AggregatedLp> aggs(kinds.size());
    bench::ForEachModelParallel(kinds, [&](models::ModelKind kind,
                                           int64_t slot) {
      aggs[static_cast<size_t>(slot)] =
          bench::RunAggregatedLp(spec, g, kind, grid);
      std::fprintf(stderr, "done %s / %s\n", spec.name.c_str(),
                   models::ModelKindName(kind));
    });
    bench::EfficiencyRow& row = efficiency.emplace_back();
    row.dataset = spec.name;
    for (size_t i = 0; i < kinds.size(); ++i) {
      const bench::AggregatedLp& agg = aggs[i];
      bench::PushToLeaderboard(&auc_board, models::ModelKindName(kinds[i]),
                               spec.name, agg, "AUC");
      bench::PushToLeaderboard(&ap_board, models::ModelKindName(kinds[i]),
                               spec.name, agg, "AP");
      row.cells.push_back(
          bench::FormatEfficiency(agg.efficiency, agg.annotation));
    }
  }

  for (int s = 0; s < 4; ++s) {
    const char* setting = core::SettingName(static_cast<core::Setting>(s));
    std::printf("=== Table 17 AUC, %s ===\n%s", setting,
                auc_board
                    .FormatTable(model_names, dataset_names,
                                 "link_prediction", setting, "AUC")
                    .c_str());
    std::printf("Average Rank (4 large-scale datasets):");
    for (const std::string& model : model_names) {
      std::printf("  %s=%.2f", model.c_str(),
                  auc_board.AverageRank(model, large, "link_prediction",
                                        setting, "AUC"));
    }
    std::printf("\n\n");
  }
  for (int s = 0; s < 4; ++s) {
    const char* setting = core::SettingName(static_cast<core::Setting>(s));
    std::printf("=== Table 18 AP, %s ===\n%s\n", setting,
                ap_board
                    .FormatTable(model_names, dataset_names,
                                 "link_prediction", setting, "AP")
                    .c_str());
  }

  std::printf("=== Table 19: node classification on the eBay datasets ===\n");
  for (const char* name : {"eBay-Small", "eBay-Large"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    std::printf("%-12s", name);
    for (models::ModelKind kind : models::PaperModels()) {
      const core::NodeClassificationResult result = core::RunNodeClassification(
          bench::NcJob(*spec, g, kind, grid, /*seed=*/4000));
      std::printf("  %s=%.4f", models::ModelKindName(kind), result.test_auc);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\n=== Tables 20/21: efficiency on the new datasets ===\n");
  std::printf("%-22s", "Dataset");
  for (const std::string& model : model_names) {
    std::printf("%24s", model.c_str());
  }
  std::printf("\n(each cell: s/epoch | RAM GB | state MB)\n");
  for (const bench::EfficiencyRow& row : efficiency) {
    std::printf("%-22s", row.dataset.c_str());
    for (const bench::EfficiencyCells& cell : row.cells) {
      std::printf("  %8s|%5s|%7s", cell.runtime.c_str(), cell.ram.c_str(),
                  cell.state.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
