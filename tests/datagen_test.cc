#include "datagen/synthetic.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
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

// Epoch-second timestamps need more than the stream default of 6
// significant digits: 1700000000.25 and 1700000001.75 must not both come
// back as 1.7e+09.
TEST(CsvTest, EpochSecondTimestampsRoundTripExactly) {
  graph::TemporalGraph g;
  g.AddInteraction(0, 1, 1700000000.25);
  g.AddInteraction(1, 2, 1700000001.75);
  g.SetEdgeFeatures(tensor::Tensor::FromVector({2, 1}, {0.1f, 1.0f / 3.0f}));
  const std::string path = "/tmp/benchtemp_csv_epoch_test.csv";
  ASSERT_TRUE(SaveCsv(g, path));
  graph::TemporalGraph loaded;
  ASSERT_TRUE(LoadCsv(path, &loaded));
  unlink(path.c_str());
  ASSERT_EQ(loaded.num_events(), 2);
  EXPECT_EQ(std::bit_cast<uint64_t>(loaded.event(0).ts),
            std::bit_cast<uint64_t>(1700000000.25));
  EXPECT_EQ(std::bit_cast<uint64_t>(loaded.event(1).ts),
            std::bit_cast<uint64_t>(1700000001.75));
  EXPECT_EQ(std::bit_cast<uint32_t>(loaded.edge_features().at(1, 0)),
            std::bit_cast<uint32_t>(1.0f / 3.0f));
}

// Every benchmark dataset survives SaveCsv -> LoadCsv bit for bit: same
// events in the same order, same edge features.
TEST(CsvTest, CatalogDatasetsRoundTripBitwise) {
  std::vector<DatasetSpec> specs = MainDatasets();
  specs.insert(specs.end(), NewDatasets().begin(), NewDatasets().end());
  ASSERT_EQ(specs.size(), 21u);
  const std::string path = "/tmp/benchtemp_csv_catalog_test.csv";
  for (const DatasetSpec& spec : specs) {
    const graph::TemporalGraph g = LoadDataset(spec);
    ASSERT_TRUE(SaveCsv(g, path)) << spec.name;
    graph::TemporalGraph loaded;
    LoadError error;
    ASSERT_TRUE(LoadCsv(path, &loaded, &error)) << error.str();
    ASSERT_EQ(loaded.num_events(), g.num_events()) << spec.name;
    ASSERT_EQ(loaded.edge_feature_dim(), g.edge_feature_dim()) << spec.name;
    int64_t mismatches = 0;
    for (int64_t i = 0; i < g.num_events(); ++i) {
      const graph::Interaction& a = g.event(i);
      const graph::Interaction& b = loaded.event(i);
      if (a.src != b.src || a.dst != b.dst || a.label != b.label ||
          std::bit_cast<uint64_t>(a.ts) != std::bit_cast<uint64_t>(b.ts)) {
        ++mismatches;
      }
      for (int64_t c = 0; c < g.edge_feature_dim(); ++c) {
        if (std::bit_cast<uint32_t>(g.edge_features().at(a.edge_idx, c)) !=
            std::bit_cast<uint32_t>(loaded.edge_features().at(b.edge_idx, c))) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << spec.name;
  }
  unlink(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  graph::TemporalGraph g;
  LoadError error;
  EXPECT_FALSE(LoadCsv("/tmp/definitely_missing_benchtemp.csv", &g, &error));
  EXPECT_EQ(error.str(), "/tmp/definitely_missing_benchtemp.csv: cannot open");
}

}  // namespace
}  // namespace benchtemp::datagen
