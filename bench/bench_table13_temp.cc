// Reproduces the TeMP appendix results: Table 13 (TeMP link-prediction AUC
// and AP under all four settings on the 15 datasets), Table 14 (TeMP
// efficiency), and Table 15 (TeMP node classification on Reddit /
// Wikipedia / MOOC).

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table13_temp");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf("Table 13/14/15 reproduction: TeMP (the paper's own model)\n\n");

  std::printf("=== Table 13: TeMP link prediction (AUC | AP) ===\n");
  std::printf("%-12s %22s %22s %22s %22s\n", "Dataset", "Transductive",
              "Inductive", "New-Old", "New-New");
  std::printf("=== with Table 14 efficiency appended per row ===\n");
  for (const datagen::DatasetSpec& spec :
       bench::SelectedDatasets(datagen::MainDatasets())) {
    graph::TemporalGraph g = bench::LoadBenchmark(spec, grid);
    const bench::AggregatedLp agg =
        bench::RunAggregatedLp(spec, g, models::ModelKind::kTemp, grid);
    std::printf("%-12s", spec.name.c_str());
    for (int s = 0; s < 4; ++s) {
      std::printf("  %.4f±%.4f|%.4f", agg.auc[s].mean, agg.auc[s].std,
                  agg.ap[s].mean);
    }
    const bench::EfficiencyCells eff =
        bench::FormatEfficiency(agg.efficiency, agg.annotation);
    std::printf("  [%ss/ep, %s ep, %sGB, %sMB]\n", eff.runtime.c_str(),
                eff.epochs.c_str(), eff.ram.c_str(), eff.state.c_str());
    std::fflush(stdout);
  }

  std::printf("\n=== Table 15: TeMP node classification ===\n");
  for (const char* name : {"Reddit", "Wikipedia", "MOOC"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    const bench::AggregatedNc agg =
        bench::RunAggregatedNc(*spec, g, models::ModelKind::kTemp, grid,
                               /*first_seed=*/3000, /*seed_step=*/1);
    const bench::EfficiencyCells eff =
        bench::FormatEfficiency(agg.efficiency, agg.annotation);
    std::printf("%-12s AUC %.4f±%.4f%s  [%ss/ep, %s ep, %sGB]\n", name,
                agg.auc.mean, agg.auc.std, agg.annotation.c_str(),
                eff.runtime.c_str(), eff.epochs.c_str(), eff.ram.c_str());
  }
  std::printf(
      "\nExpected shape (paper): TeMP is competitive transductively, lags "
      "the walk models inductively, and is efficient (low state, fast "
      "epochs).\n");
  return 0;
}
