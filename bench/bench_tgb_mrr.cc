// TGB-style ranking leaderboard: every model ranks each test positive
// against k candidate negatives (historical + uniform mix, collision-free,
// deterministically keyed — see DESIGN.md "Ranking evaluation") and reports
// MRR and Hits@{1,10} under the four evaluation settings, next to the AUC
// the pairwise benches report. A saturated AUC column with a spread-out MRR
// column is the TGB argument for ranking metrics: candidate sets are hard
// enough that near-perfect classifiers still separate.
//
// Each (dataset, model) cell also runs once with ranking off to price the
// k-way candidate pass: the fused ScoreCandidates forward must keep the
// ranked test pass within ~10% of the one-negative pass's positives/second
// (the printed "eval ev/s ratio"; CI gates the absolute number through
// tools/bench_compare --metric eval_events_per_second).
//
// Knobs on top of the common grid (bench_common.h):
//   BENCHTEMP_MRR_K         candidates per positive (default 20)
//   BENCHTEMP_MRR_HIST_FRAC historical share of each candidate set,
//                           0..1 (default 0.5)

#include <algorithm>

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("tgb_mrr");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  const int k = bench::EnvInt("BENCHTEMP_MRR_K", 20);
  const double hist_frac = bench::MrrHistoricalFractionFromEnv();
  std::printf(
      "TGB-style ranking leaderboard: MRR / Hits@{1,10} over %d candidate "
      "negatives per positive\n(runs=%d, historical fraction %.2f; "
      "candidate sets are collision-free and seed-keyed)\n\n",
      k, grid.runs, hist_frac);

  const std::vector<models::ModelKind> kinds =
      bench::SelectedModels(models::PaperModels());
  std::vector<std::string> model_names;
  for (models::ModelKind kind : kinds) {
    model_names.push_back(models::ModelKindName(kind));
  }

  core::Leaderboard board;
  std::vector<std::string> dataset_names;
  for (const datagen::DatasetSpec& spec :
       bench::SelectedDatasets(datagen::MainDatasets())) {
    dataset_names.push_back(spec.name);
    const graph::TemporalGraph g = bench::LoadBenchmark(spec, grid);
    // Slot i holds model i's rows + ratio; pushed serially afterwards so
    // leaderboard order stays deterministic under the parallel sweep.
    std::vector<std::vector<core::LeaderboardRecord>> rows(kinds.size());
    std::vector<double> ratios(kinds.size(), 0.0);
    std::vector<int> effective_k(kinds.size(), 0);
    bench::ForEachModelParallel(kinds, [&](models::ModelKind kind,
                                           int64_t slot) {
      std::vector<double> mrr[4], hits1[4], hits10[4];
      std::string annotation;
      double ranked_eps = 0.0;
      double plain_eps = 0.0;
      for (int run = 0; run < grid.runs; ++run) {
        core::LinkPredictionJob job =
            bench::LpJob(spec, g, kind, grid, 9000 + run);
        job.train_config.mrr_k = k;
        job.train_config.mrr_historical_fraction = hist_frac;
        const core::LinkPredictionResult result =
            core::RunLinkPrediction(job);
        if (!result.annotation.empty()) annotation = result.annotation;
        if (result.status != models::ModelStatus::kOk ||
            result.test_ranking[0].count == 0) {
          break;
        }
        effective_k[slot] = result.mrr_k;
        for (int s = 0; s < 4; ++s) {
          mrr[s].push_back(result.test_ranking[s].mrr);
          hits1[s].push_back(result.test_ranking[s].hits_at_1);
          hits10[s].push_back(result.test_ranking[s].hits_at_10);
        }
        ranked_eps = std::max(ranked_eps,
                              result.efficiency.eval_events_per_second);
        bench::AppendRunRecord(kind, spec, result);
        // One ranking-off rerun of the first seed prices the fused k-way
        // candidate pass against the plain one-negative test pass.
        if (run == 0) {
          core::LinkPredictionJob plain = job;
          plain.train_config.mrr_k = 0;
          const core::LinkPredictionResult base =
              core::RunLinkPrediction(plain);
          plain_eps = base.efficiency.eval_events_per_second;
        }
      }
      if (plain_eps > 0.0 && ranked_eps > 0.0) {
        ratios[slot] = ranked_eps / plain_eps;
      }
      for (int s = 0; s < 4; ++s) {
        const char* setting =
            core::SettingName(static_cast<core::Setting>(s));
        const struct {
          const char* name;
          const std::vector<double>* values;
        } metrics[3] = {{"MRR", &mrr[s]},
                        {"Hits@1", &hits1[s]},
                        {"Hits@10", &hits10[s]}};
        for (const auto& metric : metrics) {
          core::LeaderboardRecord record;
          record.model = models::ModelKindName(kind);
          record.dataset = spec.name;
          record.task = "link_prediction";
          record.setting = setting;
          record.metric = metric.name;
          const core::MeanStd ms = core::Summarize(*metric.values);
          record.mean = ms.mean;
          record.std = ms.std;
          record.annotation = annotation;
          rows[slot].push_back(std::move(record));
        }
      }
      std::fprintf(stderr, "done %s / %s%s\n", spec.name.c_str(),
                   models::ModelKindName(kind), annotation.c_str());
    });
    for (size_t slot = 0; slot < kinds.size(); ++slot) {
      for (core::LeaderboardRecord& record : rows[slot]) {
        board.Add(std::move(record));
      }
    }
    std::printf("%-12s  effective k / fused-vs-plain eval ev/s ratio:\n",
                spec.name.c_str());
    for (size_t slot = 0; slot < kinds.size(); ++slot) {
      std::printf("  %-12s k=%-3d ratio=%.2f\n", model_names[slot].c_str(),
                  effective_k[slot], ratios[slot]);
    }
    std::fflush(stdout);
  }

  const std::string csv_out = bench::EnvStr("BENCHTEMP_CSV_OUT");
  if (!csv_out.empty() && !board.WriteCsv(csv_out)) {
    std::fprintf(stderr, "cannot write %s\n", csv_out.c_str());
    return 1;
  }

  for (const char* metric : {"MRR", "Hits@1", "Hits@10"}) {
    for (int s = 0; s < 4; ++s) {
      const char* setting = core::SettingName(static_cast<core::Setting>(s));
      std::printf("=== %s, %s ===\n", metric, setting);
      std::printf("%s\n",
                  board
                      .FormatTable(model_names, dataset_names,
                                   "link_prediction", setting, metric)
                      .c_str());
    }
  }
  std::printf(
      "\nExpected shape (TGB): the MRR column spreads models a saturated "
      "AUC column (Table 3) cannot; Hits@1 <= MRR <= Hits@10.\n");
  return 0;
}
