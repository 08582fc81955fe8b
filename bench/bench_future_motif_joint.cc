// Evaluates the paper's Section 4.4 future-work proposal, implemented in
// this repo as the MotifJoint model: "increasing the model's
// structure-aware ability by jointing motifs [CAWN, NeurTW] and
// joint-neighborhood [NAT]". Compares MotifJoint against its two parents
// under all four settings on three datasets with different structure
// profiles, plus the efficiency trade-off.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("future_motif_joint");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf(
      "Future-work study: MotifJoint (motifs + joint-neighborhood)\n\n"
      "%-12s %-10s %14s %14s %14s %14s %10s\n", "Model", "Dataset",
      "Transductive", "Inductive", "New-Old", "New-New", "s/epoch");

  const models::ModelKind contenders[3] = {models::ModelKind::kCawn,
                                           models::ModelKind::kNat,
                                           models::ModelKind::kMotifJoint};
  for (const char* name : {"Wikipedia", "UCI", "Flights"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    for (models::ModelKind kind : contenders) {
      const bench::AggregatedLp agg =
          bench::RunAggregatedLp(*spec, g, kind, grid);
      std::printf("%-12s %-10s", models::ModelKindName(kind), name);
      for (int s = 0; s < 4; ++s) {
        std::printf("%14.4f", agg.auc[s].mean);
      }
      std::printf("%10s\n",
                  bench::FormatEfficiency(agg.efficiency, agg.annotation)
                      .runtime.c_str());
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nHypothesis under test (paper Section 4.4): combining the two "
      "structure channels should match or beat each parent, especially "
      "inductively.\n");
  return 0;
}
