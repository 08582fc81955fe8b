#include "tensor/serialize.h"

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "models/factory.h"
#include "tensor/modules.h"

namespace benchtemp::tensor {
namespace {

TEST(SerializeTest, RoundTripRestoresValues) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  const std::string blob = SnapshotParameters(layer.Parameters());
  // Perturb, then restore.
  std::vector<float> original;
  for (const Var& p : layer.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      original.push_back(p->value.at(i));
      p->value.at(i) += 1.5f;
    }
  }
  ASSERT_TRUE(RestoreParameters(blob, layer.Parameters()));
  size_t cursor = 0;
  for (const Var& p : layer.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      EXPECT_FLOAT_EQ(p->value.at(i), original[cursor++]);
    }
  }
}

TEST(SerializeTest, ShapeMismatchRejectedAtomically) {
  Rng rng(2);
  Linear small(4, 3, rng);
  Linear big(8, 3, rng);
  const std::string blob = SnapshotParameters(small.Parameters());
  const float before = big.Parameters()[0]->value.at(0);
  EXPECT_FALSE(RestoreParameters(blob, big.Parameters()));
  EXPECT_FLOAT_EQ(big.Parameters()[0]->value.at(0), before);  // untouched
}

TEST(SerializeTest, CountMismatchRejected) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  Linear no_bias(4, 3, rng, /*bias=*/false);
  const std::string blob = SnapshotParameters(layer.Parameters());
  EXPECT_FALSE(RestoreParameters(blob, no_bias.Parameters()));
}

TEST(SerializeTest, CorruptAndTruncatedBlobsRejected) {
  Rng rng(4);
  Linear layer(4, 3, rng);
  EXPECT_FALSE(RestoreParameters("not a checkpoint", layer.Parameters()));
  const std::string blob = SnapshotParameters(layer.Parameters());
  const float before = layer.Parameters()[0]->value.at(0);
  layer.Parameters()[0]->value.at(0) = before + 1.0f;
  EXPECT_FALSE(RestoreParameters(blob.substr(0, blob.size() - 1),
                                 layer.Parameters()));
  // The last parameter's payload is cut short, so nothing is restored.
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->value.at(0), before + 1.0f);
}

TEST(SerializeTest, TrainedModelReproducesScores) {
  // Save a model's parameters, rebuild a fresh model from the same config,
  // load, and verify identical scores on identical state — checkpointing a
  // whole TGNN.
  datagen::SyntheticConfig cfg;
  cfg.num_users = 30;
  cfg.num_items = 10;
  cfg.num_edges = 300;
  cfg.seed = 8;
  graph::TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  graph::NeighborFinder finder(g);
  models::ModelConfig mc;
  mc.embedding_dim = 8;
  mc.time_dim = 8;
  mc.num_neighbors = 4;
  mc.num_layers = 1;
  mc.seed = 5;

  auto a = models::CreateModel(models::ModelKind::kTgn, &g, mc, 30);
  auto b = models::CreateModel(models::ModelKind::kTgn, &g, mc, 30);
  a->SetNeighborFinder(&finder);
  b->SetNeighborFinder(&finder);
  const std::string blob = SnapshotParameters(a->Parameters());
  // Wreck b's parameters, then restore them from a's checkpoint. (The two
  // models share the config seed so their neighbor-sampling streams align;
  // only the parameter values are under test.)
  for (const Var& p : b->Parameters()) p->value.Fill(0.123f);
  ASSERT_TRUE(RestoreParameters(blob, b->Parameters()));

  models::Batch batch;
  for (int64_t i = 0; i < 50; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  a->Reset();
  b->Reset();
  a->UpdateState(batch);
  b->UpdateState(batch);
  std::vector<int32_t> srcs = {0, 1};
  std::vector<int32_t> dsts = {31, 32};
  std::vector<double> ts = {g.event(299).ts, g.event(299).ts};
  Var sa = a->ScoreEdges(srcs, dsts, ts);
  Var sb = b->ScoreEdges(srcs, dsts, ts);
  for (int64_t i = 0; i < sa->value.size(); ++i) {
    // TGN's neighbor sampling consumes its own rng; with identical configs
    // and identical call sequences the draws align.
    EXPECT_NEAR(sa->value.at(i), sb->value.at(i), 1e-4f);
  }
}

}  // namespace
}  // namespace benchtemp::tensor
