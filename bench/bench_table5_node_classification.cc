// Reproduces Table 5 (node-classification ROC AUC on Reddit / Wikipedia /
// MOOC, 7 models) and Table 12 (node-classification efficiency).
// BenchTemp's point here: the original CAWN/NeurTW/NAT releases never
// implemented node classification; the unified pipeline runs it for all
// seven models.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table5_node_classification");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf(
      "Table 5 / Table 12 reproduction: dynamic node classification\n\n");

  const std::vector<models::ModelKind>& kinds = models::PaperModels();
  std::printf("%-12s", "Dataset");
  for (models::ModelKind kind : kinds) {
    std::printf("%18s", models::ModelKindName(kind));
  }
  std::printf("\n");

  std::vector<bench::EfficiencyRow> rows;
  for (const char* name : {"Reddit", "Wikipedia", "MOOC"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    std::printf("%-12s", name);
    bench::EfficiencyRow& row = rows.emplace_back();
    row.dataset = name;
    for (models::ModelKind kind : kinds) {
      const bench::AggregatedNc agg = bench::RunAggregatedNc(
          *spec, g, kind, grid, /*first_seed=*/2000, /*seed_step=*/13);
      std::printf("   %.4f±%.4f%s", agg.auc.mean, agg.auc.std,
                  agg.annotation.c_str());
      std::fflush(stdout);
      row.cells.push_back(
          bench::FormatEfficiency(agg.efficiency, agg.annotation));
    }
    std::printf("\n");
  }

  bench::PrintEfficiencyBlocks(
      kinds, rows,
      {{"Runtime (s/epoch) (Table 12)", &bench::EfficiencyCells::runtime},
       {"Epochs (decoder, to convergence) (Table 12)",
        &bench::EfficiencyCells::epochs},
       {"RAM (GB) (Table 12)", &bench::EfficiencyCells::ram},
       {"State+params (MB) [GPU-memory proxy] (Table 12)",
        &bench::EfficiencyCells::state}});
  return 0;
}
