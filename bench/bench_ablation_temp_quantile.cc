// Ablation backing the Appendix E design choice: TeMP's subgraph reference
// timestamp. The paper: "We have conducted experiments at various
// quantiles, and chosen the mean timestamp since it obtains the overall
// best performance." This bench sweeps the reference quantile (0.25 / 0.5 /
// 0.75 / 1.0 = most recent) against the mean on three datasets with
// different temporal profiles.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("ablation_temp_quantile");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf(
      "TeMP reference-timestamp ablation (Appendix E design choice)\n\n"
      "%-10s %12s %12s %12s %12s %12s\n", "Dataset", "mean", "q=0.25",
      "q=0.50", "q=0.75", "q=1.00");

  const double quantiles[5] = {-1.0, 0.25, 0.5, 0.75, 1.0};
  for (const char* name : {"Wikipedia", "SocialEvo", "CanParl"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    std::printf("%-10s", name);
    for (double q : quantiles) {
      std::vector<double> aucs;
      for (int run = 0; run < grid.runs; ++run) {
        core::LinkPredictionJob job = bench::LpJob(
            *spec, g, models::ModelKind::kTemp, grid, 9000 + run);
        job.model_config.temp_reference_quantile = q;
        aucs.push_back(core::RunLinkPrediction(job).test[0].auc);
      }
      std::printf("%12.4f", core::Summarize(aucs).mean);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): the mean-timestamp reference is at or near "
      "the best column overall.\n");
  return 0;
}
