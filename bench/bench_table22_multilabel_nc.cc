// Reproduces Table 22 (Appendix G): dynamic node classification with
// multiple labels on the DGraphFin surrogate (4 classes: normal, fraud,
// and two background classes), reporting accuracy and the support-weighted
// precision / recall / F1 of the appendix's formulas, for all 7 models.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table22_multilabel_nc");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  const datagen::DatasetSpec* spec = datagen::FindDataset("DGraphFin");
  graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
  std::printf(
      "Table 22 reproduction: multi-label node classification on DGraphFin "
      "(%d classes)\n\n%-10s %12s %12s %12s %12s\n", g.NumLabelClasses(),
      "Model", "Accuracy", "Precision", "Recall", "F1");

  for (models::ModelKind kind : models::PaperModels()) {
    const bench::AggregatedNc agg = bench::RunAggregatedNc(
        *spec, g, kind, grid, /*first_seed=*/5000, /*seed_step=*/1);
    std::printf("%-10s %6.4f±%.4f %6.4f±%.4f %6.4f±%.4f %6.4f±%.4f%s\n",
                models::ModelKindName(kind), agg.accuracy.mean,
                agg.accuracy.std, agg.precision.mean, agg.precision.std,
                agg.recall.mean, agg.recall.std, agg.f1.mean, agg.f1.std,
                agg.annotation.c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape (paper): TGN best, TGAT second; CAWN/JODIE/DyRep "
      "weak on the multi-label task.\n");
  return 0;
}
