// Reproduces Table 23 (Appendix H): the NeurTW neural-ODE ablation.
// Removing the NODE continuous-evolution module ("- NODEs") should hurt
// badly on CanParl (large time granularity — yearly steps) and only mildly
// on USLegis (tiny timestamp range, 0..11), confirming the paper's claim
// that the continuous-time operation is what wins on coarse-granularity
// data.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table23_node_ablation");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf(
      "Table 23 reproduction: NeurTW ablation on neural ODEs\n\n"
      "%-10s %-10s %22s %22s %22s %22s\n", "Variant", "Dataset",
      "Transd. AUC|AP", "Inductive AUC|AP", "New-Old AUC|AP",
      "New-New AUC|AP");

  for (const bool use_nodes : {true, false}) {
    for (const char* name : {"CanParl", "USLegis"}) {
      const datagen::DatasetSpec* spec = datagen::FindDataset(name);
      graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
      std::vector<double> auc[4], ap[4];
      for (int run = 0; run < grid.runs; ++run) {
        core::LinkPredictionJob job = bench::LpJob(
            *spec, g, models::ModelKind::kNeurTw, grid, 6000 + run);
        job.model_config.use_nodes = use_nodes;
        const core::LinkPredictionResult result =
            core::RunLinkPrediction(job);
        for (int s = 0; s < 4; ++s) {
          auc[s].push_back(result.test[s].auc);
          ap[s].push_back(result.test[s].ap);
        }
      }
      std::printf("%-10s %-10s", use_nodes ? "original" : "- NODEs", name);
      for (int s = 0; s < 4; ++s) {
        std::printf("        %.4f|%.4f", core::Summarize(auc[s]).mean,
                    core::Summarize(ap[s]).mean);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nExpected shape (paper): '- NODEs' collapses CanParl toward 0.5 "
      "while USLegis degrades much less.\n");
  return 0;
}
