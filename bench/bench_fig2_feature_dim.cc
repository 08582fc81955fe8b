// Reproduces Figure 2: link-prediction ROC AUC on MOOC as the initial node
// feature dimension grows from 4 to 172 — the experiment motivating the
// paper's standardization on d = 172. Model hidden widths track the feature
// dimension (as in the reference implementations), so the trend shows the
// capacity effect the paper reports.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("fig2_feature_dim");
  using namespace benchtemp;
  bench::GridConfig grid = bench::DefaultGrid();
  grid.runs = 1;
  const datagen::DatasetSpec* spec = datagen::FindDataset("MOOC");
  const std::vector<int64_t> dims =
      grid.quick ? std::vector<int64_t>{4, 32}
                 : std::vector<int64_t>{4, 32, 86, 172};

  std::printf(
      "Figure 2 reproduction: LP AUC on MOOC vs. initial node feature "
      "dimension\n\n%-10s", "dim");
  for (models::ModelKind kind : models::PaperModels()) {
    std::printf("%10s", models::ModelKindName(kind));
  }
  std::printf("\n");

  for (int64_t dim : dims) {
    graph::TemporalGraph g = datagen::LoadDataset(*spec);
    g.InitNodeFeatures(dim);
    std::printf("%-10lld", static_cast<long long>(dim));
    for (models::ModelKind kind : models::PaperModels()) {
      core::LinkPredictionJob job = bench::LpJob(*spec, g, kind, grid, 7);
      // Hidden widths scale with the feature dimension, mirroring the
      // reference configurations (d_n == d_time == model width), clamped so
      // the largest setting stays CPU-tractable.
      job.model_config.embedding_dim =
          std::min<int64_t>(std::max<int64_t>(dim / 2, 4), 48);
      job.model_config.time_dim =
          std::min<int64_t>(std::max<int64_t>(dim / 4, 4), 24);
      const core::LinkPredictionResult result = core::RunLinkPrediction(job);
      std::printf("%10.4f", result.test[0].auc);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): AUC rises with the feature dimension for "
      "most models.\n");
  return 0;
}
