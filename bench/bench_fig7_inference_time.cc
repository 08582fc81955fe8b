// Reproduces Figure 7: inference time per 100,000 scored edges for every
// model, measured on the chronological test pass after a short training
// phase. Expected shape (paper): JODIE/DyRep/TGN/TGAT fast, CAWN/NeurTW
// one-to-two orders slower, NAT in between (fast despite being
// structure-aware).

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("fig7_inference_time");
  using namespace benchtemp;
  bench::GridConfig grid = bench::DefaultGrid();
  grid.runs = 1;
  grid.max_epochs_fast = 2;  // inference timing needs only a warm model
  grid.max_epochs_walk = 1;

  const std::vector<std::string> datasets =
      grid.quick ? std::vector<std::string>{"Wikipedia"}
                 : std::vector<std::string>{"Reddit", "Wikipedia", "MOOC",
                                            "UCI", "Flights", "Taobao"};

  std::printf(
      "Figure 7 reproduction: inference seconds per 100k scored edges\n\n"
      "%-12s", "Dataset");
  for (models::ModelKind kind : models::PaperModels()) {
    std::printf("%10s", models::ModelKindName(kind));
  }
  std::printf("\n");
  for (const std::string& name : datasets) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    std::printf("%-12s", name.c_str());
    for (models::ModelKind kind : models::PaperModels()) {
      const bench::AggregatedLp agg =
          bench::RunAggregatedLp(*spec, g, kind, grid);
      if (agg.annotation == "*") {
        std::printf("%10s", "*");
      } else {
        std::printf("%10.4g", agg.efficiency.inference_seconds_per_100k);
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
