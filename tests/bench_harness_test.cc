// Tests of the bench-harness helpers (bench/bench_common.h): environment
// knobs (the BENCHTEMP_METRICS switch and the strict numeric knobs among
// them), dataset filtering, the per-dataset model quirks the catalog
// drives (TGAT's UNTrade window, NeurTW's overflow-safe bias), the catalog
// job builders, the run aggregators and the efficiency cells.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace benchtemp::bench {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvGuard() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(BenchHarnessTest, EnvIntFallsBack) {
  unsetenv("BENCHTEMP_TEST_KNOB");
  EXPECT_EQ(EnvInt("BENCHTEMP_TEST_KNOB", 7), 7);
  EnvGuard guard("BENCHTEMP_TEST_KNOB", "42");
  EXPECT_EQ(EnvInt("BENCHTEMP_TEST_KNOB", 7), 42);
  setenv("BENCHTEMP_TEST_KNOB", "", 1);
  EXPECT_EQ(EnvInt("BENCHTEMP_TEST_KNOB", 7), 0);
  setenv("BENCHTEMP_TEST_KNOB", "1O", 1);
  EXPECT_DEATH(EnvInt("BENCHTEMP_TEST_KNOB", 7),
               "BENCHTEMP_TEST_KNOB=1O is not an integer");
}

TEST(BenchHarnessTest, FloatKnobsAreStrict) {
  unsetenv("BENCHTEMP_JOB_DEADLINE");
  unsetenv("BENCHTEMP_MRR_HIST_FRAC");
  EXPECT_DOUBLE_EQ(SweepOptionsFromEnv().job_deadline_seconds, 0.0);
  EXPECT_DOUBLE_EQ(MrrHistoricalFractionFromEnv(), 0.5);
  EnvGuard deadline("BENCHTEMP_JOB_DEADLINE", "0.5");
  EnvGuard fraction("BENCHTEMP_MRR_HIST_FRAC", "0.25");
  EXPECT_DOUBLE_EQ(SweepOptionsFromEnv().job_deadline_seconds, 0.5);
  EXPECT_DOUBLE_EQ(MrrHistoricalFractionFromEnv(), 0.25);
  // A typo must not silently turn the deadline off or skew the mix.
  for (const char* bad : {"0.5s", "half", "-1", "nan"}) {
    setenv("BENCHTEMP_JOB_DEADLINE", bad, 1);
    EXPECT_DEATH(SweepOptionsFromEnv(),
                 std::string("BENCHTEMP_JOB_DEADLINE=") + bad)
        << bad;
  }
  for (const char* bad : {"1.5", "-0.1", "quarter"}) {
    setenv("BENCHTEMP_MRR_HIST_FRAC", bad, 1);
    EXPECT_DEATH(MrrHistoricalFractionFromEnv(),
                 std::string("BENCHTEMP_MRR_HIST_FRAC=") + bad)
        << bad;
  }
}

TEST(BenchHarnessTest, MetricsSwitchIsOnOrOffNeverAPath) {
  // Each case runs in a fresh process, so the cached switch reads the
  // value set here.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* on : {"1", "on"}) {
    EXPECT_EXIT(
        {
          setenv("BENCHTEMP_METRICS", on, 1);
          std::exit(obs::MetricRegistry::Enabled() ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "")
        << on;
  }
  // A leftover export path stops a bench before it does any work.
  EXPECT_DEATH(
      {
        setenv("BENCHTEMP_METRICS", "/tmp/m.json", 1);
        BenchArtifact artifact("bench_harness_test");
      },
      "BENCHTEMP_METRICS=/tmp/m.json");
}

TEST(BenchHarnessTest, QuickModeShrinksGrid) {
  EnvGuard guard("BENCHTEMP_QUICK", "1");
  const GridConfig grid = DefaultGrid();
  EXPECT_TRUE(grid.quick);
  EXPECT_EQ(grid.runs, 1);
  EXPECT_LT(grid.feature_dim, 48);
}

TEST(BenchHarnessTest, DatasetFilterSelectsByName) {
  EnvGuard guard("BENCHTEMP_DATASETS", "Reddit,UNVote");
  const auto selected = SelectedDatasets(datagen::MainDatasets());
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].name, "Reddit");
  EXPECT_EQ(selected[1].name, "UNVote");
}

TEST(BenchHarnessTest, EmptyFilterSelectsEverything) {
  unsetenv("BENCHTEMP_DATASETS");
  EXPECT_EQ(SelectedDatasets(datagen::MainDatasets()).size(), 15u);
}

TEST(BenchHarnessTest, TgatInheritsDatasetWindow) {
  const GridConfig grid = DefaultGrid();
  const datagen::DatasetSpec* untrade = datagen::FindDataset("UNTrade");
  const models::ModelConfig config =
      ModelConfigFor(models::ModelKind::kTgat, *untrade, grid);
  EXPECT_GT(config.tgat_time_window, 0.0);
  const datagen::DatasetSpec* reddit = datagen::FindDataset("Reddit");
  EXPECT_DOUBLE_EQ(ModelConfigFor(models::ModelKind::kTgat, *reddit, grid)
                       .tgat_time_window,
                   0.0);
}

TEST(BenchHarnessTest, NeurTwUsesSafeBiasOnCoarseDatasets) {
  const GridConfig grid = DefaultGrid();
  const datagen::DatasetSpec* canparl = datagen::FindDataset("CanParl");
  EXPECT_EQ(ModelConfigFor(models::ModelKind::kNeurTw, *canparl, grid)
                .walk_bias,
            graph::WalkBias::kLinearSafe);
  const datagen::DatasetSpec* reddit = datagen::FindDataset("Reddit");
  EXPECT_EQ(
      ModelConfigFor(models::ModelKind::kNeurTw, *reddit, grid).walk_bias,
      graph::WalkBias::kExponential);
  // CAWN keeps the exponential bias everywhere (only NeurTW got the paper's
  // Eq. 2/3 patch).
  EXPECT_EQ(
      ModelConfigFor(models::ModelKind::kCawn, *canparl, grid).walk_bias,
      graph::WalkBias::kExponential);
}

TEST(BenchHarnessTest, WalkModelsGetTighterEpochBudget) {
  const GridConfig grid = DefaultGrid();
  const core::TrainConfig fast =
      TrainConfigFor(models::ModelKind::kTgn, grid, 1);
  const core::TrainConfig walk =
      TrainConfigFor(models::ModelKind::kCawn, grid, 1);
  EXPECT_GE(fast.max_epochs, walk.max_epochs);
  EXPECT_TRUE(IsWalkModel(models::ModelKind::kCawn));
  EXPECT_TRUE(IsWalkModel(models::ModelKind::kNeurTw));
  EXPECT_FALSE(IsWalkModel(models::ModelKind::kNat));
}

TEST(BenchHarnessTest, LoadBenchmarkInitializesFeatures) {
  GridConfig grid = DefaultGrid();
  grid.feature_dim = 24;
  const datagen::DatasetSpec* spec = datagen::FindDataset("USLegis");
  graph::TemporalGraph g = LoadBenchmark(*spec, grid);
  EXPECT_EQ(g.node_feature_dim(), 24);
}

TEST(BenchHarnessTest, AggregatedLpPropagatesAnnotation) {
  GridConfig grid = DefaultGrid();
  grid.quick = true;
  grid.runs = 1;
  grid.max_epochs_fast = 1;
  const datagen::DatasetSpec* untrade = datagen::FindDataset("UNTrade");
  graph::TemporalGraph g = LoadBenchmark(*untrade, grid);
  const AggregatedLp agg =
      RunAggregatedLp(*untrade, g, models::ModelKind::kTgat, grid);
  EXPECT_EQ(agg.annotation, "*");  // the paper's UNTrade runtime error
}

TEST(BenchHarnessTest, JobsGiveOnlyBipartiteDatasetsAUserBlock) {
  const GridConfig grid = DefaultGrid();
  const graph::TemporalGraph g;
  const datagen::DatasetSpec* mooc = datagen::FindDataset("MOOC");
  const datagen::DatasetSpec* canparl = datagen::FindDataset("CanParl");
  ASSERT_GT(mooc->config.num_items, 0);
  ASSERT_EQ(canparl->config.num_items, 0);
  for (const models::ModelKind kind :
       {models::ModelKind::kJodie, models::ModelKind::kCawn}) {
    EXPECT_EQ(LpJob(*mooc, g, kind, grid, 1).num_users,
              mooc->config.num_users);
    EXPECT_EQ(NcJob(*mooc, g, kind, grid, 1).num_users,
              mooc->config.num_users);
    EXPECT_EQ(LpJob(*canparl, g, kind, grid, 1).num_users, 0);
    EXPECT_EQ(NcJob(*canparl, g, kind, grid, 1).num_users, 0);
  }
  const core::LinkPredictionJob job =
      LpJob(*mooc, g, models::ModelKind::kTgn, grid, 42);
  EXPECT_EQ(job.graph, &g);
  EXPECT_EQ(job.kind, models::ModelKind::kTgn);
  EXPECT_EQ(job.train_config.seed, 42u);
}

TEST(BenchHarnessTest, NcJobPretrainsWalkModelsForOneEpoch) {
  const GridConfig grid = DefaultGrid();
  const graph::TemporalGraph g;
  const datagen::DatasetSpec* reddit = datagen::FindDataset("Reddit");
  std::vector<models::ModelKind> kinds = models::PaperModels();
  kinds.push_back(models::ModelKind::kTemp);  // Table 15's model
  for (const models::ModelKind kind : kinds) {
    EXPECT_EQ(NcJob(*reddit, g, kind, grid, 1).pretrain_epochs,
              IsWalkModel(kind) ? 1 : 3)
        << models::ModelKindName(kind);
  }
}

TEST(BenchHarnessTest, EfficiencyCellsKeepFourDigitsAndMarkNoConvergence) {
  core::EfficiencyStats eff;
  eff.seconds_per_epoch = 0.0004;
  eff.best_epoch = 2;
  eff.converged = false;
  eff.max_rss_gb = 0.0123;
  eff.state_bytes = 3 * 1024 * 1024;
  eff.parameter_bytes = 512 * 1024;
  eff.train_events_per_second = 12345.6;
  EfficiencyCells cells = FormatEfficiency(eff, "");
  EXPECT_EQ(cells.runtime, "0.0004");
  EXPECT_EQ(cells.epochs, "x");
  EXPECT_EQ(cells.ram, "0.01");
  EXPECT_EQ(cells.state, "3.5");
  EXPECT_EQ(cells.throughput, "12346");
  eff.seconds_per_epoch = 0.00041237;
  eff.converged = true;
  cells = FormatEfficiency(eff, "");
  EXPECT_EQ(cells.runtime, "0.0004124");
  EXPECT_EQ(cells.epochs, "3");
  // A job that could not run has no efficiency to show.
  cells = FormatEfficiency(eff, "*");
  for (const std::string& cell : {cells.runtime, cells.epochs, cells.ram,
                                  cells.state, cells.throughput}) {
    EXPECT_EQ(cell, "*");
  }
}

TEST(BenchHarnessTest, AggregatedNcPropagatesAnnotation) {
  GridConfig grid = DefaultGrid();
  grid.quick = true;
  grid.runs = 2;
  grid.max_epochs_fast = 1;
  // UNTrade's TGAT window empties every neighbourhood (the paper's runtime
  // error); labels let the node-classification pipeline start.
  datagen::DatasetSpec untrade = *datagen::FindDataset("UNTrade");
  untrade.config.label_classes = 2;
  untrade.config.label_positive_rate = 0.05;
  graph::TemporalGraph g = LoadBenchmark(untrade, grid);
  const AggregatedNc agg = RunAggregatedNc(untrade, g, models::ModelKind::kTgat,
                                           grid, /*first_seed=*/1,
                                           /*seed_step=*/1);
  EXPECT_EQ(agg.annotation, "*");
  EXPECT_DOUBLE_EQ(agg.auc.mean, 0.0);  // a failed run reports no metrics
}

}  // namespace
}  // namespace benchtemp::bench
