// Reproduces Tables 26/27 (Appendix J): NAT evaluated with Historical and
// Inductive negative sampling on the datasets where it over-performs under
// random negatives (Reddit, Wikipedia, Flights). The harder samplers should
// pull its AUC/AP well below the 0.95+ random-negative numbers, which is
// the appendix's argument for shipping both samplers in BenchTemp.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table26_negative_sampling");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf(
      "Table 26/27 reproduction: NAT under harder negative sampling\n\n"
      "%-12s %-10s %22s %22s %22s %22s\n", "Sampling", "Dataset",
      "Transd. AUC|AP", "Inductive AUC|AP", "New-Old AUC|AP",
      "New-New AUC|AP");

  const core::NegativeSampling modes[3] = {
      core::NegativeSampling::kRandom, core::NegativeSampling::kHistorical,
      core::NegativeSampling::kInductive};
  for (core::NegativeSampling mode : modes) {
    for (const char* name : {"Reddit", "Wikipedia", "Flights"}) {
      const datagen::DatasetSpec* spec = datagen::FindDataset(name);
      graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
      std::vector<double> auc[4], ap[4];
      for (int run = 0; run < grid.runs; ++run) {
        core::LinkPredictionJob job = bench::LpJob(
            *spec, g, models::ModelKind::kNat, grid, 8000 + run);
        job.train_config.negative_sampling = mode;
        const core::LinkPredictionResult result =
            core::RunLinkPrediction(job);
        for (int s = 0; s < 4; ++s) {
          auc[s].push_back(result.test[s].auc);
          ap[s].push_back(result.test[s].ap);
        }
      }
      std::printf("%-12s %-10s", core::NegativeSamplingName(mode), name);
      for (int s = 0; s < 4; ++s) {
        std::printf("        %.4f|%.4f", core::Summarize(auc[s]).mean,
                    core::Summarize(ap[s]).mean);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nExpected shape (paper): Historical/Inductive negatives sit well "
      "below the Random rows (Table 3) on the same datasets.\n");
  return 0;
}
