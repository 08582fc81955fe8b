#include "datagen/synthetic.h"

#include <unistd.h>

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datagen/catalog.h"
#include "datagen/csv.h"

namespace benchtemp::datagen {
namespace {

/// True when the events are in non-decreasing timestamp order.
bool Chronological(const graph::TemporalGraph& g) {
  return std::ranges::is_sorted(g.events(), {}, &graph::Interaction::ts);
}

TEST(SyntheticTest, GeneratesRequestedSize) {
  SyntheticConfig cfg;
  cfg.num_users = 50;
  cfg.num_items = 20;
  cfg.num_edges = 500;
  auto g = Generate(cfg);
  EXPECT_GE(g.num_events(), 500);
  EXPECT_EQ(g.num_nodes(), 70);
  EXPECT_TRUE(Chronological(g));
  EXPECT_EQ(g.edge_features().rows(), g.num_events());
}

TEST(SyntheticTest, BipartiteRespectsSides) {
  SyntheticConfig cfg;
  cfg.num_users = 30;
  cfg.num_items = 10;
  cfg.num_edges = 400;
  auto g = Generate(cfg);
  for (const auto& e : g.events()) {
    EXPECT_LT(e.src, 30);
    EXPECT_GE(e.dst, 30);
    EXPECT_LT(e.dst, 40);
  }
}

TEST(SyntheticTest, HomogeneousNoSelfLoops) {
  SyntheticConfig cfg;
  cfg.num_users = 25;
  cfg.num_items = 0;
  cfg.num_edges = 400;
  auto g = Generate(cfg);
  for (const auto& e : g.events()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.dst, 25);
  }
}

TEST(SyntheticTest, Deterministic) {
  SyntheticConfig cfg;
  cfg.num_edges = 300;
  cfg.seed = 99;
  auto a = Generate(cfg);
  auto b = Generate(cfg);
  ASSERT_EQ(a.num_events(), b.num_events());
  for (int64_t i = 0; i < a.num_events(); ++i) {
    EXPECT_EQ(a.event(i).src, b.event(i).src);
    EXPECT_EQ(a.event(i).dst, b.event(i).dst);
    EXPECT_DOUBLE_EQ(a.event(i).ts, b.event(i).ts);
  }
}

TEST(SyntheticTest, ReuseKnobControlsRepeatEdges) {
  SyntheticConfig low;
  low.num_users = 200;
  low.num_items = 200;
  low.num_edges = 2000;
  low.edge_reuse_prob = 0.0;
  low.zipf_src = 0.0;
  low.zipf_dst = 0.0;
  SyntheticConfig high = low;
  high.edge_reuse_prob = 0.9;
  const double low_reuse = Generate(low).ComputeStats().edge_reuse_ratio;
  const double high_reuse = Generate(high).ComputeStats().edge_reuse_ratio;
  EXPECT_GT(high_reuse, low_reuse + 0.3);
}

TEST(SyntheticTest, GranularityControlsDistinctTimestamps) {
  SyntheticConfig coarse;
  coarse.num_edges = 2000;
  coarse.time_granularity = 12;
  coarse.time_span = 12.0;
  const auto stats = Generate(coarse).ComputeStats();
  EXPECT_LE(stats.distinct_timestamps, 13);
}

TEST(SyntheticTest, BinaryLabelsRareAndMonotone) {
  SyntheticConfig cfg;
  cfg.num_edges = 2000;
  cfg.label_classes = 2;
  cfg.label_positive_rate = 0.05;
  auto g = Generate(cfg);
  int64_t positives = 0;
  // Once a source turns positive it stays positive (ban semantics).
  std::set<int32_t> banned;
  for (const auto& e : g.events()) {
    ASSERT_GE(e.label, 0);
    if (e.label == 1) {
      positives++;
      banned.insert(e.src);
    } else {
      EXPECT_EQ(banned.count(e.src), 0u) << "label flipped back";
    }
  }
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, g.num_events() / 4);  // imbalanced, like the paper
}

TEST(SyntheticTest, MultiClassLabels) {
  SyntheticConfig cfg;
  cfg.num_edges = 2000;
  cfg.label_classes = 4;
  cfg.label_positive_rate = 0.1;
  auto g = Generate(cfg);
  EXPECT_EQ(g.NumLabelClasses(), 4);
}

TEST(CatalogTest, FifteenMainAndSixNewDatasets) {
  EXPECT_EQ(MainDatasets().size(), 15u);
  EXPECT_EQ(NewDatasets().size(), 6u);
}

TEST(CatalogTest, LookupAndPaperStats) {
  const DatasetSpec* reddit = FindDataset("Reddit");
  ASSERT_NE(reddit, nullptr);
  EXPECT_TRUE(reddit->paper.heterogeneous);
  EXPECT_EQ(reddit->paper.num_edges, 672447);
  EXPECT_TRUE(reddit->node_classification);
  const DatasetSpec* untrade = FindDataset("UNTrade");
  ASSERT_NE(untrade, nullptr);
  EXPECT_GT(untrade->tgat_time_window, 0.0);  // reproduces the "*" failure
  EXPECT_TRUE(untrade->coarse_granularity);
  EXPECT_EQ(FindDataset("NoSuchDataset"), nullptr);
}

TEST(CatalogTest, NodeClassificationDatasetsHaveLabels) {
  for (const auto& spec : MainDatasets()) {
    auto g = LoadDataset(spec);
    EXPECT_EQ(g.HasLabels(), spec.node_classification) << spec.name;
    EXPECT_TRUE(Chronological(g)) << spec.name;
    EXPECT_GT(g.num_events(), 1000) << spec.name;
  }
}

TEST(CatalogTest, CoarseDatasetsHaveFewTimestamps) {
  const DatasetSpec* canparl = FindDataset("CanParl");
  ASSERT_NE(canparl, nullptr);
  const auto stats = LoadDataset(*canparl).ComputeStats();
  EXPECT_LE(stats.distinct_timestamps, canparl->config.time_granularity + 1);
  const DatasetSpec* socialevo = FindDataset("SocialEvo");
  const auto fine = LoadDataset(*socialevo).ComputeStats();
  EXPECT_GT(fine.distinct_timestamps, stats.distinct_timestamps * 10);
}

TEST(CsvTest, RoundTrip) {
  SyntheticConfig cfg;
  cfg.num_edges = 200;
  cfg.edge_feature_dim = 3;
  cfg.label_classes = 2;
  cfg.label_positive_rate = 0.2;
  auto g = Generate(cfg);
  const std::string path = "/tmp/benchtemp_csv_test.csv";
  ASSERT_TRUE(SaveCsv(g, path));
  graph::TemporalGraph loaded;
  ASSERT_TRUE(LoadCsv(path, &loaded));
  ASSERT_EQ(loaded.num_events(), g.num_events());
  for (int64_t i = 0; i < g.num_events(); ++i) {
    EXPECT_EQ(loaded.event(i).src, g.event(i).src);
    EXPECT_EQ(loaded.event(i).dst, g.event(i).dst);
    EXPECT_EQ(loaded.event(i).label, g.event(i).label);
    EXPECT_NEAR(loaded.event(i).ts, g.event(i).ts, 1e-6);
  }
  EXPECT_EQ(loaded.edge_feature_dim(), 3);
  unlink(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  graph::TemporalGraph g;
  EXPECT_FALSE(LoadCsv("/tmp/definitely_missing_benchtemp.csv", &g));
}

}  // namespace
}  // namespace benchtemp::datagen
