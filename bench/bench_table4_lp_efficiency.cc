// Reproduces Table 4 (link-prediction efficiency) and Table 11 (GPU
// utilization) with the CPU substitutions documented in DESIGN.md:
//   Runtime  -> seconds per training epoch (same meaning),
//   Epoch    -> epochs consumed until early-stop convergence ("x" when the
//               model did not converge within its budget),
//   RAM      -> process peak RSS in GB,
//   GPU Mem  -> model state + parameter megabytes,
//   GPU Util -> training throughput in events/second (Table 11's proxy).

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table4_lp_efficiency");
  using namespace benchtemp;
  bench::GridConfig grid = bench::DefaultGrid();
  if (std::getenv("BENCHTEMP_RUNS") == nullptr) {
    // Efficiency numbers do not need repetition for the table itself; the
    // CI perf gate sets BENCHTEMP_RUNS to average throughput over several
    // runs (tools/bench_compare averages the per-run records).
    grid.runs = 1;
  }
  std::printf(
      "Table 4 / Table 11 reproduction: link-prediction efficiency\n"
      "(CPU substitutions per DESIGN.md; paper ran 2x Xeon 8375C + 4090s)\n");

  const std::vector<models::ModelKind> kinds =
      bench::SelectedModels(models::PaperModels());
  std::vector<bench::EfficiencyRow> rows;
  for (const datagen::DatasetSpec& spec :
       bench::SelectedDatasets(datagen::MainDatasets())) {
    graph::TemporalGraph g = bench::LoadBenchmark(spec, grid);
    bench::EfficiencyRow& row = rows.emplace_back();
    row.dataset = spec.name;
    for (models::ModelKind kind : kinds) {
      const bench::AggregatedLp agg =
          bench::RunAggregatedLp(spec, g, kind, grid);
      row.cells.push_back(
          bench::FormatEfficiency(agg.efficiency, agg.annotation));
      std::fprintf(stderr, "done %s / %s%s\n", spec.name.c_str(),
                   models::ModelKindName(kind), agg.annotation.c_str());
    }
  }

  bench::PrintEfficiencyBlocks(
      kinds, rows,
      {{"Runtime (seconds / epoch)", &bench::EfficiencyCells::runtime},
       {"Epochs to convergence (x = did not converge)",
        &bench::EfficiencyCells::epochs},
       {"RAM (GB, peak RSS)", &bench::EfficiencyCells::ram},
       {"Model state + parameters (MB) [GPU-memory proxy]",
        &bench::EfficiencyCells::state},
       {"Training throughput (events/s) [Table 11 GPU-util proxy]",
        &bench::EfficiencyCells::throughput}});
  std::printf("\n");
  return 0;
}
