#include "models/factory.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "models/edgebank.h"
#include "models/nat.h"
#include "models/tgat.h"
#include "obs/metrics.h"
#include "tensor/debug_check.h"
#include "tensor/kernels/arena.h"
#include "tensor/optimizer.h"

namespace benchtemp::models {
namespace {

using graph::NeighborFinder;
using graph::TemporalGraph;
using tensor::Var;

/// Small learnable graph shared by the model tests.
TemporalGraph MakeGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 600;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

ModelConfig SmallConfig() {
  ModelConfig config;
  config.embedding_dim = 8;
  config.time_dim = 8;
  config.num_neighbors = 4;
  config.num_layers = 2;
  config.num_heads = 2;
  config.num_walks = 2;
  config.walk_length = 2;
  return config;
}

/// The trainer's link-prediction loss: mean of the positive (target 1)
/// and negative (target 0) BCE.
Var PairLoss(const Var& pos, const Var& neg) {
  tensor::Tensor ones({pos->value.size()});
  ones.Fill(1.0f);
  tensor::Tensor zeros({neg->value.size()});
  return ScalarMul(Add(BceWithLogits(pos, ones), BceWithLogits(neg, zeros)),
                   0.5f);
}

Batch FirstBatch(const TemporalGraph& g, int64_t n) {
  Batch batch;
  for (int64_t i = 0; i < n; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  return batch;
}

class AllModelsTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllModelsTest, ScoreShapeAndFiniteness) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  // Warm up state with the first 100 events, then score the next 20.
  model->UpdateState(FirstBatch(g, 100));
  Batch batch;
  for (int64_t i = 100; i < 120; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  Var scores = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
  ASSERT_EQ(scores->value.rows(), 20);
  ASSERT_EQ(scores->value.cols(), 1);
  for (int64_t i = 0; i < scores->value.size(); ++i) {
    EXPECT_TRUE(std::isfinite(scores->value.at(i))) << model->name();
  }
}

TEST_P(AllModelsTest, EmbeddingsShape) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  model->UpdateState(FirstBatch(g, 100));
  std::vector<int32_t> nodes = {0, 1, 2, 41, 42};
  std::vector<double> ts(5, g.event(150).ts);
  Var emb = model->ComputeEmbeddings(nodes, ts);
  EXPECT_EQ(emb->value.rows(), 5);
  EXPECT_EQ(emb->value.cols(), 8);
}

TEST_P(AllModelsTest, TrainingStepReducesLoss) {
  if (GetParam() == ModelKind::kEdgeBank) GTEST_SKIP() << "not trainable";
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  model->set_training(true);
  tensor::Adam optimizer(model->Parameters(), 1e-2f);
  ASSERT_FALSE(model->Parameters().empty());

  Batch warm = FirstBatch(g, 100);
  Batch batch;
  for (int64_t i = 100; i < 164; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  std::vector<int32_t> negatives(batch.srcs.size());
  tensor::Rng rng(3);
  for (auto& d : negatives) d = 40 + static_cast<int32_t>(rng.UniformInt(15));

  // Repeatedly fit the same batch (after warming the temporal state so
  // memory-only models have node-dependent inputs): the loss must drop
  // substantially, which verifies gradients reach every module (incl.
  // memory updaters).
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 25; ++step) {
    model->Reset();
    model->UpdateState(warm);
    Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
    Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
    Var loss = PairLoss(pos, neg);
    if (step == 0) first = loss->value.at(0);
    last = loss->value.at(0);
    optimizer.ZeroGrad();
    Backward(loss);
    optimizer.Step();
  }
  EXPECT_LT(last, first * 0.9f) << model->name();
}

TEST_P(AllModelsTest, ResetClearsState) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  const std::vector<int32_t> nodes = {0, 1};
  const std::vector<double> ts = {g.event(200).ts, g.event(200).ts};
  // Reset must return every model to its fresh state: with the sampling
  // RNG rewound, embeddings after training on a prefix and resetting are
  // bit-identical to the fresh ones.
  const std::string rng_state = model->SaveRngState();
  const Var before = model->ComputeEmbeddings(nodes, ts);
  const std::vector<float> fresh(before->value.data(),
                                 before->value.data() + before->value.size());
  // UpdateState only queues a batch; the scoring call applies it, so the
  // model holds real state when Reset runs.
  model->UpdateState(FirstBatch(g, 150));
  model->ComputeEmbeddings(nodes, ts);
  model->Reset();
  ASSERT_TRUE(model->LoadRngState(rng_state));
  const Var after = model->ComputeEmbeddings(nodes, ts);
  ASSERT_EQ(after->value.size(), static_cast<int64_t>(fresh.size()));
  for (int64_t i = 0; i < after->value.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(after->value.at(i)),
              std::bit_cast<uint32_t>(fresh[static_cast<size_t>(i)]))
        << model->name() << " element " << i;
  }
}

TEST_P(AllModelsTest, StateBytesReported) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  model->UpdateState(FirstBatch(g, 100));
  std::vector<int32_t> nodes = {0};
  std::vector<double> ts = {g.event(200).ts};
  (void)model->ComputeEmbeddings(nodes, ts);
  EXPECT_GE(model->StateBytes(), 0);
  if (model->trainable()) {
    EXPECT_GT(model->ParameterBytes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllModelsTest,
    ::testing::Values(ModelKind::kJodie, ModelKind::kDyRep, ModelKind::kTgn,
                      ModelKind::kTgat, ModelKind::kCawn, ModelKind::kNeurTw,
                      ModelKind::kNat, ModelKind::kTemp,
                      ModelKind::kEdgeBank, ModelKind::kMotifJoint),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      std::string name = ModelKindName(info.param);
      return name == "TeMP" ? "TeMP_" : name;  // avoid case-only collision
    });

TEST(FactoryTest, NamesRoundTrip) {
  for (ModelKind kind : PaperModels()) {
    EXPECT_EQ(ModelKindFromName(ModelKindName(kind)), kind);
  }
  EXPECT_EQ(PaperModels().size(), 7u);
}

TEST(MemoryModelTest, StateChangesScores) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(ModelKind::kTgn, &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  std::vector<int32_t> nodes = {g.event(0).src};
  std::vector<double> ts = {g.event(300).ts};
  Var cold = model->ComputeEmbeddings(nodes, ts);
  model->UpdateState(FirstBatch(g, 200));
  Var warm = model->ComputeEmbeddings(nodes, ts);
  float diff = 0.0f;
  for (int64_t i = 0; i < cold->value.size(); ++i) {
    diff += std::fabs(cold->value.at(i) - warm->value.at(i));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(MemoryModelTest, PendingAppliedExactlyOnce) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(ModelKind::kJodie, &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  Batch batch = FirstBatch(g, 10);
  model->UpdateState(batch);
  std::vector<int32_t> nodes = {batch.srcs[0]};
  std::vector<double> ts = {batch.ts[0] + 1.0};
  Var a = model->ComputeEmbeddings(nodes, ts);  // applies pending
  Var b = model->ComputeEmbeddings(nodes, ts);  // must be a no-op replay
  for (int64_t i = 0; i < a->value.size(); ++i) {
    EXPECT_FLOAT_EQ(a->value.at(i), b->value.at(i));
  }
}

/// Distinct tape nodes reachable from `root`, leaves included.
int64_t TapeNodeCount(const Var& root) {
  std::vector<const tensor::VarNode*> stack = {root.get()};
  std::unordered_set<const tensor::VarNode*> seen = {root.get()};
  while (!stack.empty()) {
    const tensor::VarNode* node = stack.back();
    stack.pop_back();
    for (const Var& parent : node->parents) {
      if (seen.insert(parent.get()).second) stack.push_back(parent.get());
    }
  }
  return static_cast<int64_t>(seen.size());
}

/// A memory read is one gather whatever its live share: after a warm
/// batch, a pair loss over 96 events has as many tape nodes as one over
/// 24, though many more of its gathered rows come from the live update.
TEST(MemoryModelTest, GatherTapeDoesNotGrowWithLiveRows) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  const Batch warm = FirstBatch(g, 20);
  for (const ModelKind kind : {ModelKind::kTgn, ModelKind::kDyRep}) {
    SCOPED_TRACE(ModelKindName(kind));
    std::vector<int64_t> counts;
    for (const int64_t n : {24, 96}) {
      auto model = CreateModel(kind, &g, SmallConfig(), 40);
      model->SetNeighborFinder(&finder);
      model->Reset();
      model->set_training(true);
      model->UpdateState(warm);
      Batch batch;
      std::vector<int32_t> negatives;
      for (int64_t i = warm.size(); i < warm.size() + n; ++i) {
        const auto& e = g.event(i);
        batch.srcs.push_back(e.src);
        batch.dsts.push_back(e.dst);
        batch.ts.push_back(e.ts);
        negatives.push_back(40 + static_cast<int32_t>(i % 15));
      }
      tensor::kernels::TapeScope scope;
      Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
      Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
      counts.push_back(TapeNodeCount(PairLoss(pos, neg)));
    }
    EXPECT_EQ(counts[0], counts[1]);
  }
}

TEST(TgatTest, TimeWindowTriggersRuntimeError) {
  // All events share one timestamp tick; a window smaller than the tick can
  // never see a strictly-earlier neighbor -> the paper's UNTrade "*".
  TemporalGraph g;
  for (int i = 0; i < 50; ++i) g.AddInteraction(i % 10, 10 + i % 5, 1.0);
  for (int i = 0; i < 50; ++i) g.AddInteraction(i % 10, 10 + i % 5, 2.0);
  g.SetEdgeFeatures(tensor::Tensor({100, 2}));
  g.InitNodeFeatures(4);
  NeighborFinder finder(g);
  ModelConfig config = SmallConfig();
  config.tgat_time_window = 0.5;
  Tgat model(&g, config);
  model.SetNeighborFinder(&finder);
  std::vector<int32_t> nodes = {0, 1, 2};
  std::vector<double> ts = {2.0, 2.0, 2.0};  // only the 1.0-tick visible
  (void)model.ComputeEmbeddings(nodes, ts);
  // Window (1.5, 2.0) is empty for everyone.
  EXPECT_EQ(model.status(), ModelStatus::kRuntimeError);
  // Without a window the same graph works.
  ModelConfig ok = SmallConfig();
  Tgat healthy(&g, ok);
  healthy.SetNeighborFinder(&finder);
  (void)healthy.ComputeEmbeddings(nodes, ts);
  EXPECT_EQ(healthy.status(), ModelStatus::kOk);
}

TEST(TgatTest, ExhaustedPreparedInputsAreFatal) {
  // Prepared inputs hold exactly the plans of one batch; asking for more
  // must fail loudly rather than fall back to the member RNG, which would
  // silently make prefetched and inline preparation disagree. Three plans
  // (srcs, dsts, negatives): the second call reuses the source embeddings
  // and runs out at the negatives.
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  Tgat model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  const Batch batch = FirstBatch(g, 8);
  std::unique_ptr<PreparedInputs> prepared =
      model.PrepareBatch(batch, batch.dsts, /*seed=*/7);
  auto* fifo = dynamic_cast<TgatPreparedInputs*>(prepared.get());
  ASSERT_NE(fifo, nullptr);
  ASSERT_EQ(fifo->fifo.size(), 3u);
  fifo->fifo.resize(fifo->fifo.size() - 1);  // one plan short
  model.SetPreparedInputs(prepared.get());
  EXPECT_DEATH(
      {
        (void)model.ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        (void)model.ScoreEdges(batch.srcs, batch.dsts, batch.ts);
      },
      "exhausted \\(cursor 2 of 2\\)");
}

TEST(TgatTest, PreparedPlanForOtherQueriesIsFatal) {
  // Destinations and negatives are both n long: scoring the negatives
  // first must not embed them with the destinations' neighbourhoods.
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  Tgat model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  const Batch batch = FirstBatch(g, 8);
  std::vector<int32_t> negatives;
  for (int32_t i = 0; i < 8; ++i) negatives.push_back(40 + i);
  ASSERT_NE(negatives, batch.dsts);
  std::unique_ptr<PreparedInputs> prepared =
      model.PrepareBatch(batch, negatives, /*seed=*/7);
  model.SetPreparedInputs(prepared.get());
  EXPECT_DEATH(
      (void)model.ScoreEdges(batch.srcs, negatives, batch.ts),
      "built for other queries \\(cursor 1 of 3\\)");
}

TEST(TgatTest, DuplicateQueriesShareOneEmbedding) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  Tgat model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  const int32_t a = g.event(300).src;
  const int32_t b = g.event(300).dst;
  const double t = g.event(300).ts;
  const double t_b = g.event(310).ts;
  // With two or more earlier events, two independent draws for `a` would
  // almost surely differ.
  int64_t count = 0;
  (void)finder.Before(a, t, &count);
  ASSERT_GE(count, 2);

  const std::string rng_state = model.SaveRngState();
  int64_t start = registry.value(obs::Counter::kKernelFlops);
  {
    tensor::kernels::TapeScope scope;
    Var emb = model.ComputeEmbeddings({a, b, a}, {t, t_b, t});
    const tensor::Tensor& v = emb->value;
    ASSERT_EQ(v.rows(), 3);
    const int64_t d = v.cols();
    for (int64_t j = 0; j < d; ++j) {
      EXPECT_EQ(std::bit_cast<uint32_t>(v.at(0, j)),
                std::bit_cast<uint32_t>(v.at(2, j)))
          << "column " << j;
    }
  }
  const int64_t with_duplicate =
      registry.value(obs::Counter::kKernelFlops) - start;
  model.LoadRngState(rng_state);
  start = registry.value(obs::Counter::kKernelFlops);
  {
    tensor::kernels::TapeScope scope;
    (void)model.ComputeEmbeddings({a, b}, {t, t_b});
  }
  const int64_t distinct = registry.value(obs::Counter::kKernelFlops) - start;
  EXPECT_GT(distinct, 0);
  EXPECT_EQ(with_duplicate, distinct);
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
}

TEST(TgatTest, PlanDrawsOncePerDistinctQuery) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  const ModelConfig config = SmallConfig();
  Tgat model(&g, config);
  model.SetNeighborFinder(&finder);
  // Sources and destinations of 40 events, the sources listed twice.
  std::vector<int32_t> nodes;
  std::vector<double> ts;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t i = 300; i < 340; ++i) {
      nodes.push_back(g.event(i).src);
      ts.push_back(g.event(i).ts);
    }
  }
  for (int64_t i = 300; i < 340; ++i) {
    nodes.push_back(g.event(i).dst);
    ts.push_back(g.event(i).ts);
  }
  tensor::Rng rng(21);
  const TgatPlan plan = model.Plan(nodes, ts, rng);
  EXPECT_EQ(plan.nodes, nodes);
  ASSERT_EQ(plan.levels.size(), static_cast<size_t>(config.num_layers) + 1);

  // Layer 0 ignores time, so its key is the node alone.
  using Key = std::pair<int32_t, uint64_t>;
  const auto key = [](size_t layer, int32_t node, double t) {
    return Key{node, layer == 0 ? 0 : std::bit_cast<uint64_t>(t)};
  };
  const auto key_at = [&](size_t layer, int64_t row) {
    const TgatPlan::Level& level = plan.levels[layer];
    const size_t r = static_cast<size_t>(row);
    EXPECT_LT(r, level.nodes.size());
    return key(layer, level.nodes[r], layer == 0 ? 0.0 : level.ts[r]);
  };
  for (size_t l = 0; l < plan.levels.size(); ++l) {
    const TgatPlan::Level& level = plan.levels[l];
    EXPECT_EQ(level.ts.size(), l == 0 ? 0 : level.nodes.size());
    std::set<Key> seen;
    for (size_t r = 0; r < level.nodes.size(); ++r) {
      EXPECT_TRUE(seen.insert(key_at(l, static_cast<int64_t>(r))).second)
          << "layer " << l << " repeats row " << r;
    }
  }
  const size_t top = plan.levels.size() - 1;
  ASSERT_EQ(plan.out_rows.size(), nodes.size());
  EXPECT_LT(plan.levels[top].nodes.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(key_at(top, plan.out_rows[i]), key(top, nodes[i], ts[i]));
  }
  for (size_t l = 1; l < plan.levels.size(); ++l) {
    const TgatPlan::Level& level = plan.levels[l];
    const graph::SampledNeighborhood& nb = level.nb;
    ASSERT_EQ(nb.num_queries, static_cast<int64_t>(level.nodes.size()));
    ASSERT_EQ(level.self_rows.size(), level.nodes.size());
    ASSERT_EQ(level.nbr_rows.size(), nb.flat_neighbors.size());
    for (size_t i = 0; i < level.nodes.size(); ++i) {
      EXPECT_EQ(key_at(l - 1, level.self_rows[i]),
                key(l - 1, level.nodes[i], level.ts[i]));
    }
    for (size_t s = 0; s < nb.flat_neighbors.size(); ++s) {
      EXPECT_EQ(key_at(l - 1, level.nbr_rows[s]),
                key(l - 1, nb.flat_neighbors[s], nb.flat_times[s]));
    }
  }
  // One draw per distinct query: the stream ends where SampleNeighborhood
  // over the distinct lists, top layer first, ends.
  tensor::Rng replay(21);
  for (size_t l = top; l >= 1; --l) {
    const TgatPlan::Level& level = plan.levels[l];
    const graph::SampledNeighborhood nb = finder.SampleNeighborhood(
        level.nodes, level.ts, config.num_neighbors, config.tgat_time_window,
        replay);
    EXPECT_EQ(nb.flat_neighbors, level.nb.flat_neighbors) << "layer " << l;
    EXPECT_EQ(nb.flat_edges, level.nb.flat_edges) << "layer " << l;
  }
  EXPECT_EQ(replay.SaveState(), rng.SaveState());
}

/// The source-embedding operand of a MergeLayer logit node: the first
/// ConcatCols down the fc2 -> Relu -> fc1 chain joins [src | dst].
const tensor::VarNode* SourceNodeOf(const Var& logits) {
  const tensor::VarNode* node = logits.get();
  while (node != nullptr && std::string(node->op) != "ConcatCols") {
    node = node->parents.empty() ? nullptr : node->parents[0].get();
  }
  return node == nullptr ? nullptr : node->parents[0].get();
}

/// Eight disjoint pairs (i, 8 + i) at t = i + 1: every node has exactly
/// one earlier event, so every neighbour draw is the same edge and the
/// flop count of an embedding does not depend on the RNG stream.
TemporalGraph OneEventPerNodeGraph() {
  TemporalGraph g;
  for (int32_t i = 0; i < 8; ++i) g.AddInteraction(i, 8 + i, i + 1.0);
  tensor::Rng rng(11);
  g.SetEdgeFeatures(tensor::Tensor::Randn({8, 4}, rng));
  g.InitNodeFeatures(8);
  return g;
}

class SourceMemoTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    arena_was_ = tensor::kernels::ArenaEnabled();
    check_was_ = tensor::debug_check::Enabled();
    obs::MetricRegistry::OverrideEnabledForTest(1);
  }
  void TearDown() override {
    tensor::kernels::SetArenaEnabledForTest(arena_was_);
    tensor::debug_check::SetEnabledForTest(check_was_);
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
  }

 private:
  bool arena_was_ = true;
  bool check_was_ = false;
};

TEST_P(SourceMemoTest, OneSourceEmbeddingPerBatch) {
  TemporalGraph g = OneEventPerNodeGraph();
  NeighborFinder finder(g);
  Batch batch;
  std::vector<int32_t> negatives;
  for (int32_t i = 0; i < 8; ++i) {
    batch.srcs.push_back(i);
    batch.dsts.push_back(8 + i);
    batch.ts.push_back(10.0);
    batch.edge_idxs.push_back(i);
    negatives.push_back(8 + (i + 1) % 8);
  }
  auto& registry = obs::MetricRegistry::Global();
  const auto flops = [&registry] {
    return registry.value(obs::Counter::kKernelFlops);
  };
  for (const bool arena : {true, false}) {
    for (const bool check : {false, true}) {
      SCOPED_TRACE(arena ? "arena on" : "arena off");
      SCOPED_TRACE(check ? "check on" : "check off");
      tensor::kernels::SetArenaEnabledForTest(arena);
      tensor::debug_check::SetEnabledForTest(check);
      auto model = CreateModel(GetParam(), &g, SmallConfig(), 8);
      model->SetNeighborFinder(&finder);
      model->Reset();
      model->set_training(true);

      // One source embedding, then pos + neg with a recompute forced
      // between them, then pos + neg sharing the sources.
      int64_t start = flops();
      {
        tensor::kernels::TapeScope scope;
        (void)model->ComputeEmbeddings(batch.srcs, batch.ts);
      }
      const int64_t one_embedding = flops() - start;
      start = flops();
      {
        tensor::kernels::TapeScope scope;
        Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        model->set_training(true);
        Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
        EXPECT_NE(SourceNodeOf(pos), SourceNodeOf(neg));
      }
      const int64_t cold = flops() - start;
      start = flops();
      {
        tensor::kernels::TapeScope scope;
        Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
        const int64_t shared = flops() - start;
        EXPECT_GT(one_embedding, 0);
        EXPECT_EQ(cold - shared, one_embedding);
        ASSERT_NE(SourceNodeOf(pos), nullptr);
        EXPECT_EQ(SourceNodeOf(pos), SourceNodeOf(neg));
        // The ranked pass tiles the same node.
        Var cand = model->ScoreCandidates(batch.srcs, negatives, batch.ts, 1);
        ASSERT_EQ(std::string(SourceNodeOf(cand)->op), "GatherRows");
        EXPECT_EQ(SourceNodeOf(cand)->parents[0].get(), SourceNodeOf(pos));
        // Both gradients meet at the shared node in one backward pass.
        Backward(PairLoss(pos, neg));
      }

      // Everything that ends a batch forces a recompute.
      const std::string rng_state = model->SaveRngState();
      const std::pair<const char*, std::function<void()>> boundaries[] = {
          {"UpdateState", [&] { model->UpdateState(batch); }},
          {"Reset", [&] { model->Reset(); }},
          {"SetPreparedInputs", [&] { model->SetPreparedInputs(nullptr); }},
          {"SetNeighborFinder", [&] { model->SetNeighborFinder(&finder); }},
          {"set_training", [&] { model->set_training(true); }},
          {"LoadRngState", [&] { model->LoadRngState(rng_state); }},
      };
      for (const auto& [name, boundary] : boundaries) {
        tensor::kernels::TapeScope scope;
        Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        boundary();
        Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
        EXPECT_NE(SourceNodeOf(pos), SourceNodeOf(neg)) << name;
      }
      {
        tensor::kernels::TapeScope outer;
        Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        tensor::kernels::TapeScope inner;
        Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
        EXPECT_NE(SourceNodeOf(pos), SourceNodeOf(neg)) << "TapeScope";
      }
      {
        tensor::kernels::TapeScope scope;
        Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        std::vector<int32_t> other_srcs = batch.srcs;
        other_srcs[3] = 5;
        Var neg = model->ScoreEdges(other_srcs, negatives, batch.ts);
        EXPECT_NE(SourceNodeOf(pos), SourceNodeOf(neg)) << "srcs";
        std::vector<double> other_ts = batch.ts;
        other_ts[3] = std::nextafter(other_ts[3], 20.0);
        Var later = model->ScoreEdges(batch.srcs, negatives, other_ts);
        EXPECT_NE(SourceNodeOf(pos), SourceNodeOf(later)) << "ts";
      }
    }
  }
}

/// Central differences of PairLoss(ScoreEdges(pos), ScoreEdges(neg)) on a
/// sampled subset of every parameter tensor, against Backward through the
/// source node the two calls share. Each evaluation restores the model's
/// temporal state and its neighbour draws (member RNG state for TGN and
/// DyRep, the prepared inputs for TGAT), so all of them see one function.
TEST_P(SourceMemoTest, PairLossGradientMatchesFiniteDifferences) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 600;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  // Time-encoder frequency gradients scale with the time deltas: over the
  // default span of 1000 a float32 central difference cannot resolve
  // them.
  cfg.time_span = 10.0;
  TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->set_training(true);
  const Batch warm = FirstBatch(g, 100);
  Batch batch;
  for (int64_t i = 100; i < 124; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  std::vector<int32_t> negatives(batch.srcs.size());
  tensor::Rng pick(3);
  for (auto& d : negatives) d = 40 + static_cast<int32_t>(pick.UniformInt(15));
  std::unique_ptr<PreparedInputs> prepared =
      model->PrepareBatch(batch, negatives, /*seed=*/9);
  const std::string rng_state = model->SaveRngState();

  const auto loss_at_current_parameters = [&] {
    model->Reset();
    model->UpdateState(warm);
    model->LoadRngState(rng_state);
    if (auto* tgat = dynamic_cast<TgatPreparedInputs*>(prepared.get())) {
      tgat->cursor = 0;
    }
    model->SetPreparedInputs(prepared.get());
    Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
    Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
    model->SetPreparedInputs(nullptr);
    EXPECT_EQ(SourceNodeOf(pos), SourceNodeOf(neg));
    return PairLoss(pos, neg);
  };

  const std::vector<Var> params = model->Parameters();
  // Move off the initial point: zero node features and zero-initialised
  // biases put many Relu inputs exactly at 0, where the derivative jumps.
  for (const Var& p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      p->value.at(i) += pick.Normal(0.0f, 0.1f);
    }
  }
  float value = 0.0f;
  {
    tensor::kernels::TapeScope scope;
    Var loss = loss_at_current_parameters();
    value = loss->value.at(0);
    tensor::ZeroGrad(params);
    Backward(loss);
  }
  ASSERT_TRUE(std::isfinite(value));
  const float eps = 5e-4f;
  for (size_t t = 0; t < params.size(); ++t) {
    const Var& p = params[t];
    ASSERT_EQ(p->grad.size(), p->value.size());
    for (int sample = 0; sample < 2; ++sample) {
      const int64_t i = pick.UniformInt(p->value.size());
      const float saved = p->value.at(i);
      float up = 0.0f, down = 0.0f;
      p->value.at(i) = saved + eps;
      {
        tensor::kernels::TapeScope scope;
        up = loss_at_current_parameters()->value.at(0);
      }
      p->value.at(i) = saved - eps;
      {
        tensor::kernels::TapeScope scope;
        down = loss_at_current_parameters()->value.at(0);
      }
      p->value.at(i) = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = p->grad.at(i);
      EXPECT_NEAR(analytic, numeric,
                  5e-2f * std::max(std::fabs(analytic), std::fabs(numeric)) +
                      5e-4f)
          << "entry " << i << " of parameter " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MergeLayerModels, SourceMemoTest,
    ::testing::Values(ModelKind::kJodie, ModelKind::kDyRep, ModelKind::kTgn,
                      ModelKind::kTgat, ModelKind::kTemp),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

TEST(EdgeBankTest, MemorizesSeenEdges) {
  TemporalGraph g = MakeGraph();
  EdgeBank model(&g, SmallConfig());
  model.Reset();
  Batch batch = FirstBatch(g, 50);
  model.UpdateState(batch);
  std::vector<int32_t> srcs = {batch.srcs[0], batch.srcs[0]};
  std::vector<int32_t> dsts = {batch.dsts[0], 54};  // 54: an unseen item
  std::vector<double> ts = {100.0, 100.0};
  Var scores = model.ScoreEdges(srcs, dsts, ts);
  EXPECT_GT(scores->value.at(0), scores->value.at(1));
  EXPECT_FALSE(model.trainable());
  EXPECT_TRUE(model.Parameters().empty());
}

TEST(NatTest, JointFeaturesDetectCommonNeighbors) {
  TemporalGraph g;
  // Triangle-ish stream: 0-2, 1-2 (common neighbor 2), then 3-4 isolated.
  g.AddInteraction(0, 2, 1.0);
  g.AddInteraction(1, 2, 2.0);
  g.AddInteraction(3, 4, 3.0);
  g.SetEdgeFeatures(tensor::Tensor({3, 2}));
  g.InitNodeFeatures(4);
  NeighborFinder finder(g);
  Nat model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  model.Reset();
  Batch batch;
  for (int64_t i = 0; i < 3; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  model.UpdateState(batch);
  const auto f01 = model.JointFeatures(0, 1);  // share neighbor 2
  const auto f03 = model.JointFeatures(0, 3);  // share nothing
  EXPECT_GT(f01[2], 0.0f);
  EXPECT_FLOAT_EQ(f03[2], 0.0f);
  const auto f02 = model.JointFeatures(0, 2);  // direct edge
  EXPECT_FLOAT_EQ(f02[0], 1.0f);
  EXPECT_FLOAT_EQ(f02[1], 1.0f);
}

TEST(NeurTwTest, NodeAblationChangesEncoding) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  ModelConfig with_nodes = SmallConfig();
  with_nodes.use_nodes = true;
  ModelConfig without = SmallConfig();
  without.use_nodes = false;
  auto a = CreateModel(ModelKind::kNeurTw, &g, with_nodes, 40);
  auto b = CreateModel(ModelKind::kNeurTw, &g, without, 40);
  a->SetNeighborFinder(&finder);
  b->SetNeighborFinder(&finder);
  // Same seeds -> same walks; the only difference is the NODE evolution.
  std::vector<int32_t> srcs = {g.event(500).src};
  std::vector<int32_t> dsts = {g.event(500).dst};
  std::vector<double> ts = {g.event(500).ts};
  Var sa = a->ScoreEdges(srcs, dsts, ts);
  Var sb = b->ScoreEdges(srcs, dsts, ts);
  EXPECT_NE(sa->value.at(0), sb->value.at(0));
}

TEST(WalkModelTest, ColdStartStillScores) {
  // Scoring at the very beginning of the stream (no history anywhere).
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(ModelKind::kCawn, &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->Reset();
  std::vector<int32_t> srcs = {0};
  std::vector<int32_t> dsts = {40};
  std::vector<double> ts = {0.0};
  Var scores = model->ScoreEdges(srcs, dsts, ts);
  EXPECT_TRUE(std::isfinite(scores->value.at(0)));
}

}  // namespace
}  // namespace benchtemp::models
