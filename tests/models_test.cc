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
#include "models/cawn.h"
#include "models/edgebank.h"
#include "models/nat.h"
#include "models/tgat.h"
#include "models/tgn.h"
#include "obs/metrics.h"
#include "robustness/checkpoint.h"
#include "tensor/debug_check.h"
#include "tensor/kernels/arena.h"
#include "tensor/modules.h"
#include "tensor/optimizer.h"
#include "tensor/serialize.h"

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

TEST(ModelsTest, ParameterSnapshotGolden) {
  // The parameter list is the checkpoint's parameter and Adam layout and
  // ClipGradNorm's summation order: a reordered, forgotten or doubly
  // listed module changes these bytes.
  const std::pair<ModelKind, uint64_t> golden[] = {
      {ModelKind::kJodie, 10461447607020777854ull},
      {ModelKind::kDyRep, 918018605751714764ull},
      {ModelKind::kTgn, 8635216191840201611ull},
      {ModelKind::kTgat, 8177641539511633066ull},
      {ModelKind::kCawn, 13096572242911511023ull},
      {ModelKind::kNeurTw, 6518002730739790291ull},
      {ModelKind::kNat, 2874189348007183746ull},
      {ModelKind::kTemp, 3338106986045653715ull},
      {ModelKind::kEdgeBank, 5027589047073761478ull},
      {ModelKind::kMotifJoint, 17968952021215919447ull},
  };
  TemporalGraph g = MakeGraph();
  for (const auto& [kind, fnv] : golden) {
    SCOPED_TRACE(ModelKindName(kind));
    auto model = CreateModel(kind, &g, SmallConfig(), 40);
    const std::vector<Var> params = model->Parameters();
    EXPECT_EQ(std::set<Var>(params.begin(), params.end()).size(),
              params.size());
    EXPECT_EQ(robustness::Fnv1a64(tensor::SnapshotParameters(params)), fnv);
  }
}

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

/// TGN's "last message" aggregator: a node named as a source, as a
/// destination and in a self-loop within one pending batch takes the time
/// of its last event in the batch, whichever endpoint it was there.
TEST(MemoryModelTest, LastEventOfEachNodeWins) {
  struct Probe : Tgn {
    using Tgn::Tgn;
    using MemoryModel::LastUpdate;
  };
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  Probe model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  model.Reset();
  Batch batch;
  int32_t edge = 0;
  const auto add = [&batch, &edge](int32_t src, int32_t dst, double t) {
    batch.edge_idxs.push_back(edge++);
    batch.srcs.push_back(src);
    batch.dsts.push_back(dst);
    batch.ts.push_back(t);
  };
  add(3, 45, 1.0);  // 3 as the source
  add(7, 3, 2.0);   // 3 as the destination
  add(3, 3, 3.0);   // 3 in a self-loop: its last event
  add(9, 7, 4.0);   // 7's last event, as the destination
  add(45, 9, 5.0);  // 45's and 9's last event
  add(7, 50, 6.0);  // 7 again, as the source
  model.UpdateState(batch);
  model.UpdateState(Batch());  // applies the pending batch
  EXPECT_DOUBLE_EQ(model.LastUpdate(3), 3.0);
  EXPECT_DOUBLE_EQ(model.LastUpdate(7), 6.0);
  EXPECT_DOUBLE_EQ(model.LastUpdate(9), 5.0);
  EXPECT_DOUBLE_EQ(model.LastUpdate(45), 5.0);
  EXPECT_DOUBLE_EQ(model.LastUpdate(50), 6.0);
  EXPECT_DOUBLE_EQ(model.LastUpdate(0), 0.0);
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
  // and runs out at the negatives. The pool's threads are running by now,
  // so the death test re-executes the binary instead of forking.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  Tgat model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  const Batch batch = FirstBatch(g, 8);
  std::unique_ptr<PreparedInputs> prepared =
      model.PrepareBatch(batch, batch.dsts, /*seed=*/7);
  ASSERT_EQ(prepared->calls.size(), 3u);
  prepared->calls.pop_back();  // one plan short
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
  // first must not embed them with the destinations' neighbourhoods. As
  // above, the death test re-executes the binary instead of forking.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
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

// ---------------------------------------------------------------------------
// Keys projected once per distinct row (memory rows, TGAT's previous-layer
// rows, time deltas) against the dense composition they replaced:
// GatherMemory / GatherRows + Encode, every row materialized and passed as
// a dense block. The two differ only in the order of float sums.
// ---------------------------------------------------------------------------

/// max |got - want| <= tol * max |want| + floor. The floor admits
/// rounding noise in gradients that are zero in exact arithmetic (a key
/// bias shifts every score of a query alike, which the softmax cancels).
void ExpectRelClose(const tensor::Tensor& got, const tensor::Tensor& want,
                    const std::string& what, float tol = 1e-5f,
                    float floor = 0.0f) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  float scale = 0.0f, err = 0.0f;
  for (int64_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::fabs(want.at(i)));
    err = std::max(err, std::fabs(got.at(i) - want.at(i)));
  }
  EXPECT_LE(err, tol * scale + floor) << what;
}

/// Copies `from[offset, offset + to.size())` into the values of `to` and
/// returns the offset past them.
size_t CopyValues(const std::vector<Var>& from, size_t offset,
                  const std::vector<Var>& to) {
  for (const Var& p : to) {
    EXPECT_LT(offset, from.size());
    EXPECT_EQ(from[offset]->value.shape(), p->value.shape());
    p->value = from[offset++]->value;
  }
  return offset;
}

/// Compares the gradients of `want` with those of `got[offset, ...)`.
size_t ExpectGradsClose(const std::vector<Var>& got, size_t offset,
                        const std::vector<Var>& want, const char* what) {
  for (size_t i = 0; i < want.size(); ++i, ++offset) {
    ExpectRelClose(got[offset]->grad, want[i]->grad,
                   std::string(what) + " parameter " + std::to_string(i),
                   1e-4f, 1e-6f);
  }
  return offset;
}

/// TGN with the dense composition of its embedding beside its own, over
/// copies of its attention and output modules.
class DenseKeyTgn : public Tgn {
 public:
  using Tgn::Tgn;
  using MemoryModel::MessageDim;

  Var DenseEmbeddings(const std::vector<int32_t>& nodes,
                      const std::vector<double>& ts,
                      const tensor::MultiHeadAttention& attention,
                      const tensor::Linear& out) {
    ProcessPending();
    const int64_t k = config_.num_neighbors;
    Var memory = GatherMemory(nodes);
    const graph::SampledNeighborhood nb =
        finder_->SampleNeighborhood(nodes, ts, k, /*window=*/0.0, rng_);
    Var attended = attention.Forward(
        {memory, time_encoder_.Encode(std::vector<float>(nodes.size()))},
        {GatherMemory(nb.flat_neighbors),
         tensor::GatherRows(tensor::Constant(graph_->edge_features()),
                            nb.flat_edges),
         time_encoder_.Encode(nb.flat_dts)},
        nb.mask, k);
    return out.Forward({attended, memory});
  }
};

TEST(DistinctKeysTest, TgnMatchesDenseComposition) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  const ModelConfig config = SmallConfig();
  const int64_t d = config.embedding_dim;
  const Batch first = FirstBatch(g, 60);
  Batch second;
  std::vector<int32_t> nodes;
  std::vector<double> ts;
  for (int64_t i = 60; i < 120; ++i) {
    const auto& e = g.event(i);
    second.srcs.push_back(e.src);
    second.dsts.push_back(e.dst);
    second.ts.push_back(e.ts);
    second.edge_idxs.push_back(e.edge_idx);
  }
  for (int64_t i = 120; i < 150; ++i) {
    nodes.push_back(g.event(i).src);
    nodes.push_back(g.event(i).dst);
    ts.push_back(g.event(i).ts);
    ts.push_back(g.event(i).ts);
  }
  tensor::Rng rng(61);
  const tensor::Tensor weights =
      tensor::Tensor::Randn({static_cast<int64_t>(nodes.size()), d}, rng);
  for (const bool training : {false, true}) {
    SCOPED_TRACE(training ? "training, live memory rows" : "eval");
    DenseKeyTgn model(&g, config), dense(&g, config);
    tensor::MultiHeadAttention attention(
        d + config.time_dim, d + g.edge_feature_dim() + config.time_dim, d,
        config.num_heads, rng);
    tensor::Linear out(2 * d, d, rng);
    // Tgn::Parameters(): time encoder, GRU, attention, output, predictor.
    const std::vector<Var> params = dense.Parameters();
    const size_t gru_end =
        2 + tensor::GruCell(model.MessageDim(), d, rng)
                .Parameters()
                .size();
    CopyValues(params, CopyValues(params, gru_end, attention.Parameters()),
               out.Parameters());
    for (DenseKeyTgn* m : {&model, &dense}) {
      m->SetNeighborFinder(&finder);
      m->Reset();
      m->set_training(training);
      m->UpdateState(first);
      m->UpdateState(second);
    }
    tensor::kernels::TapeScope scope;
    Var got = model.ComputeEmbeddings(nodes, ts);
    Var want = dense.DenseEmbeddings(nodes, ts, attention, out);
    ExpectRelClose(got->value, want->value, "embeddings");
    if (!training) continue;
    Backward(Sum(Mul(got, tensor::Constant(weights))));
    Backward(Sum(Mul(want, tensor::Constant(weights))));
    const std::vector<Var> got_params = model.Parameters();
    // The live rows carry the GRU's gradient through the memory rows.
    float gru_grad = 0.0f;
    for (size_t i = 2; i < gru_end; ++i) {
      for (int64_t j = 0; j < got_params[i]->grad.size(); ++j) {
        gru_grad = std::max(gru_grad, std::fabs(got_params[i]->grad.at(j)));
      }
    }
    EXPECT_GT(gru_grad, 0.0f);
    size_t next = ExpectGradsClose(
        got_params, 0, {params.begin(), params.begin() + gru_end},
        "encoder/GRU");
    next = ExpectGradsClose(got_params, next, attention.Parameters(),
                            "attention");
    ExpectGradsClose(got_params, next, out.Parameters(), "output");
  }
}

/// TGAT's plan embedded with the dense composition, over copies of the
/// model's modules.
Var DenseTgatEmbed(const TemporalGraph& g, const ModelConfig& config,
                   const TgatPlan& plan, const tensor::Linear& feature_proj,
                   const tensor::TimeEncoder& encoder,
                   const std::vector<tensor::MultiHeadAttention>& layers,
                   const std::vector<tensor::Linear>& layer_out) {
  Var h = feature_proj.Forward(
      {tensor::GatherRows(tensor::Constant(g.node_features()),
                          plan.levels.front().nodes)});
  for (size_t l = 1; l < plan.levels.size(); ++l) {
    const TgatPlan::Level& level = plan.levels[l];
    const graph::SampledNeighborhood& nb = level.nb;
    Var self_prev = tensor::GatherRows(h, level.self_rows);
    Var attended = layers[l - 1].Forward(
        {self_prev, encoder.Encode(std::vector<float>(level.nodes.size()))},
        {tensor::GatherRows(h, level.nbr_rows),
         tensor::GatherRows(tensor::Constant(g.edge_features()),
                            nb.flat_edges),
         encoder.Encode(nb.flat_dts)},
        nb.mask, config.num_neighbors);
    h = Relu(layer_out[l - 1].Forward({attended, self_prev}));
  }
  return tensor::GatherRows(h, plan.out_rows);
}

TEST(DistinctKeysTest, TgatMatchesDenseComposition) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  const ModelConfig config = SmallConfig();
  const int64_t d = config.embedding_dim;
  std::vector<int32_t> nodes;
  std::vector<double> ts;
  for (int64_t i = 300; i < 340; ++i) {
    nodes.push_back(g.event(i).src);
    nodes.push_back(g.event(i).dst);
    ts.push_back(g.event(i).ts);
    ts.push_back(g.event(i).ts);
  }
  tensor::Rng rng(62);
  const tensor::Tensor weights =
      tensor::Tensor::Randn({static_cast<int64_t>(nodes.size()), d}, rng);
  for (const bool training : {false, true}) {
    SCOPED_TRACE(training ? "training" : "eval");
    Tgat model(&g, config);
    model.SetNeighborFinder(&finder);
    model.set_training(training);
    // Tgat::Parameters(): feature projection, time encoder, the attention
    // layers, their output projections, predictor.
    tensor::Linear feature_proj(g.node_feature_dim(), d, rng);
    tensor::TimeEncoder encoder(config.time_dim);
    std::vector<tensor::MultiHeadAttention> layers;
    std::vector<tensor::Linear> layer_out;
    layers.reserve(static_cast<size_t>(config.num_layers));
    layer_out.reserve(static_cast<size_t>(config.num_layers));
    for (int64_t l = 0; l < config.num_layers; ++l) {
      layers.emplace_back(d + config.time_dim,
                          d + g.edge_feature_dim() + config.time_dim, d,
                          config.num_heads, rng);
      layer_out.emplace_back(2 * d, d, rng);
    }
    std::vector<Var> copies = feature_proj.Parameters();
    for (const Var& p : encoder.Parameters()) copies.push_back(p);
    for (const auto& layer : layers) {
      for (const Var& p : layer.Parameters()) copies.push_back(p);
    }
    for (const auto& linear : layer_out) {
      for (const Var& p : linear.Parameters()) copies.push_back(p);
    }
    const std::vector<Var> params = model.Parameters();
    CopyValues(params, 0, copies);

    const std::string rng_state = model.SaveRngState();
    tensor::kernels::TapeScope scope;
    Var got = model.ComputeEmbeddings(nodes, ts);
    tensor::Rng replay(0);
    ASSERT_TRUE(replay.LoadState(rng_state));
    const TgatPlan plan = model.Plan(nodes, ts, replay);
    Var want = DenseTgatEmbed(g, config, plan, feature_proj, encoder, layers,
                              layer_out);
    ExpectRelClose(got->value, want->value, "embeddings");
    if (!training) continue;
    Backward(Sum(Mul(got, tensor::Constant(weights))));
    Backward(Sum(Mul(want, tensor::Constant(weights))));
    // The feature projection's gradient reaches it only through the
    // previous-layer rows of the keys and the self rows.
    ExpectGradsClose(params, 0, copies, "TGAT");
  }
}

/// The first-layer node of a predictor's logit node: the logits are
/// fc2 = Project({Relu(fc1)}, W2, b2), whose parents are {W2, Relu, b2}.
const tensor::VarNode* FirstLayerOf(const Var& logits) {
  if (std::string(logits->op) != "Project") return nullptr;
  const tensor::VarNode* relu = logits->parents[1].get();
  return std::string(relu->op) == "Relu" ? relu->parents[0].get() : nullptr;
}

/// The source-embedding operand of a predictor's logit node: the first
/// layer's parents are {W, src block, dst block, bias}, and a gathered
/// source block's parent is its table.
const tensor::VarNode* SourceNodeOf(const Var& logits) {
  const tensor::VarNode* fc1 = FirstLayerOf(logits);
  return fc1 == nullptr ? nullptr : fc1->parents[1].get();
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
        // The ranked pass projects the same node: it is the table of the
        // source block of its first layer.
        Var cand = model->ScoreCandidates(batch.srcs, negatives, batch.ts, 1);
        EXPECT_EQ(SourceNodeOf(cand), SourceNodeOf(pos));
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

/// ScoreCandidates against the composition it replaced: the source
/// embeddings tiled to one row per candidate (GatherRows) beside the
/// candidates' embeddings, both dense blocks, scored with the predictor's
/// own fc1/fc2 parameters as dense projections. Both sides start
/// from the same temporal state and member RNG state, so they draw the
/// same neighbourhoods.
class RankedPassTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(RankedPassTest, MatchesDenseTiling) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(GetParam(), &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  model->set_training(false);
  tensor::Rng pick(17);
  // Off the initial point: zero-initialised biases and node features
  // would leave many logits equal.
  const std::vector<Var> params = model->Parameters();
  for (const Var& p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      p->value.at(i) += pick.Normal(0.0f, 0.3f);
    }
  }
  const Batch first = FirstBatch(g, 60);
  Batch second;
  for (int64_t i = 60; i < 120; ++i) {
    const auto& e = g.event(i);
    second.srcs.push_back(e.src);
    second.dsts.push_back(e.dst);
    second.ts.push_back(e.ts);
    second.edge_idxs.push_back(e.edge_idx);
  }
  const int k = 6;
  std::vector<int32_t> srcs, candidates;
  std::vector<double> ts, cand_ts;
  for (int64_t i = 120; i < 132; ++i) {
    srcs.push_back(g.event(i).src);
    ts.push_back(g.event(i).ts);
    for (int j = 0; j < k; ++j) {
      candidates.push_back(40 + static_cast<int32_t>(pick.UniformInt(15)));
      cand_ts.push_back(g.event(i).ts);
    }
  }
  // Replaying `second` applies `first` to the memory, which draws
  // neighbours for DyRep, so each side replays from one RNG state.
  const std::string rng_state = model->SaveRngState();
  const auto prime = [&] {
    model->Reset();
    model->LoadRngState(rng_state);
    model->UpdateState(first);
    model->UpdateState(second);
  };
  prime();
  tensor::kernels::TapeScope scope;
  Var got = model->ScoreCandidates(srcs, candidates, ts, k);

  prime();
  Var src_emb = model->ComputeEmbeddings(srcs, ts);
  Var cand_emb = model->ComputeEmbeddings(candidates, cand_ts);
  std::vector<int32_t> tile;
  for (size_t i = 0; i < srcs.size(); ++i) {
    tile.insert(tile.end(), k, static_cast<int32_t>(i));
  }
  // The predictor's parameters close every model's list: fc1's weight and
  // bias, then fc2's.
  ASSERT_GE(params.size(), 4u);
  const Var* fc = params.data() + params.size() - 4;
  Var hidden = Relu(tensor::Project(
      {tensor::GatherRows(src_emb, tile), cand_emb}, fc[0], fc[1]));
  Var want = tensor::Project({hidden}, fc[2], fc[3]);
  ExpectRelClose(got->value, want->value, "ranked logits");
}

INSTANTIATE_TEST_SUITE_P(
    MergeLayerModels, RankedPassTest,
    ::testing::Values(ModelKind::kJodie, ModelKind::kDyRep, ModelKind::kTgn,
                      ModelKind::kTgat, ModelKind::kTemp),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

TEST(RankedPassTest, BuildsNoKeySlotSizedTensors) {
  // TGN's attention reads its keys and values as summed rows: the ranked
  // pass over n queries with K neighbours each records no tape value of
  // n * K rows, for the sources' call or the candidates'.
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  const ModelConfig config = SmallConfig();
  auto model = CreateModel(ModelKind::kTgn, &g, config, 40);
  model->SetNeighborFinder(&finder);
  model->set_training(false);
  model->Reset();
  model->UpdateState(FirstBatch(g, 120));
  const int k = 6;
  std::vector<int32_t> srcs, candidates;
  std::vector<double> ts;
  tensor::Rng pick(18);
  for (int64_t i = 120; i < 132; ++i) {
    srcs.push_back(g.event(i).src);
    ts.push_back(g.event(i).ts);
    for (int j = 0; j < k; ++j) {
      candidates.push_back(40 + static_cast<int32_t>(pick.UniformInt(15)));
    }
  }
  tensor::kernels::TapeScope scope;
  Var scores = model->ScoreCandidates(srcs, candidates, ts, k);
  const int64_t neighbors = config.num_neighbors;
  const std::set<int64_t> key_slots = {
      static_cast<int64_t>(srcs.size()) * neighbors,
      static_cast<int64_t>(candidates.size()) * neighbors};
  std::vector<const tensor::VarNode*> stack = {scores.get()};
  std::set<const tensor::VarNode*> seen = {scores.get()};
  int64_t nodes = 0;
  while (!stack.empty()) {
    const tensor::VarNode* node = stack.back();
    stack.pop_back();
    ++nodes;
    if (node->value.rank() == 2) {
      EXPECT_EQ(key_slots.count(node->value.rows()), 0u)
          << node->op << " holds " << node->value.rows() << " rows";
    }
    for (const Var& p : node->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  EXPECT_GT(nodes, 10);
}

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

TEST(WalkModelTest, PreparedPairSetForOtherDestinationsIsFatal) {
  // Prepared inputs hold the positive, then the negative pair set; scoring
  // the negatives first must not encode them with the positives' walks.
  // The pool's threads are running, so the death test re-executes the
  // binary instead of forking.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(ModelKind::kCawn, &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  const Batch batch = FirstBatch(g, 8);
  std::vector<int32_t> negatives;
  for (int32_t i = 0; i < 8; ++i) negatives.push_back(40 + i);
  ASSERT_NE(negatives, batch.dsts);
  std::unique_ptr<PreparedInputs> prepared =
      model->PrepareBatch(batch, negatives, /*seed=*/7);
  model->SetPreparedInputs(prepared.get());
  EXPECT_DEATH((void)model->ScoreEdges(batch.srcs, negatives, batch.ts),
               "built for other queries \\(cursor 0 of 2\\)");
}

TEST(WalkModelTest, ExhaustedPreparedPairSetsAreFatal) {
  // Two pair sets serve exactly the positive and the negative scoring
  // call; a third call must not fall back to the member RNG. As above, the
  // death test re-executes the binary instead of forking.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  auto model = CreateModel(ModelKind::kCawn, &g, SmallConfig(), 40);
  model->SetNeighborFinder(&finder);
  const Batch batch = FirstBatch(g, 8);
  std::vector<int32_t> negatives;
  for (int32_t i = 0; i < 8; ++i) negatives.push_back(40 + i);
  std::unique_ptr<PreparedInputs> prepared =
      model->PrepareBatch(batch, negatives, /*seed=*/7);
  model->SetPreparedInputs(prepared.get());
  (void)model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
  (void)model->ScoreEdges(batch.srcs, negatives, batch.ts);
  EXPECT_DEATH((void)model->ScoreEdges(batch.srcs, negatives, batch.ts),
               "exhausted \\(cursor 2 of 2\\)");
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

/// CAWN beside the dense composition of its walk encoder, over its own
/// modules: at every step each row's edge features are copied into a dense
/// block, each row's delta is encoded, and the GRU starts from a zero
/// hidden state.
class DenseWalkCawn : public Cawn {
 public:
  using Cawn::Cawn;

  Var DenseScores(const WalkPairSet& set, const std::vector<double>& ts) {
    const auto& groups = set.groups;
    const int64_t walks = static_cast<int64_t>(groups[0].size());
    const int64_t rows = static_cast<int64_t>(groups.size()) * walks;
    const int64_t anon_dim = 2 * (config_.walk_length + 1);
    const tensor::Tensor& edges = graph_->edge_features();
    const double scale = graph_->MeanEventGap();
    Var hidden =
        tensor::Constant(tensor::Tensor({rows, config_.embedding_dim}));
    for (int64_t s = 0; s <= config_.walk_length; ++s) {
      tensor::Tensor anon({rows, anon_dim});
      tensor::Tensor edge_block({rows, edges.cols()});
      std::vector<float> dts(static_cast<size_t>(rows), 0.0f);
      tensor::Tensor ended = tensor::Tensor::Full({rows, 1}, 1.0f);
      for (int64_t r = 0; r < rows; ++r) {
        const size_t g = static_cast<size_t>(r / walks);
        const graph::TemporalWalk& walk =
            groups[g][static_cast<size_t>(r % walks)];
        if (s >= static_cast<int64_t>(walk.size())) continue;
        const graph::WalkStep& step = walk[static_cast<size_t>(s)];
        ended.at(r) = 0.0f;
        const std::vector<float> f = set.anonymizers[g].Encode(step.node);
        for (int64_t c = 0; c < anon_dim; ++c) {
          anon.at(r, c) = f[static_cast<size_t>(c)];
        }
        for (int64_t c = 0; c < edges.cols() && step.edge_idx >= 0; ++c) {
          edge_block.at(r, c) = edges.at(step.edge_idx, c);
        }
        dts[static_cast<size_t>(r)] =
            static_cast<float>((ts[g] - step.ts) / scale);
      }
      const std::vector<Var> proj = step_proj_.Parameters();
      Var x = Relu(tensor::Project(
          {tensor::Constant(std::move(anon)), time_encoder_.Encode(dts),
           tensor::Constant(std::move(edge_block))},
          proj[0], proj[1]));
      Var next = encoder_.Forward({x}, hidden);
      hidden = Lerp(next, hidden, tensor::Constant(std::move(ended)));
    }
    tensor::Tensor pool({static_cast<int64_t>(groups.size()), walks});
    pool.Fill(1.0f / static_cast<float>(walks));
    return score_head_.Forward(
        {BatchWeightedSum(pool, hidden, walks)});
  }
};

TEST(WalkModelTest, GatheredStepsMatchDenseBlocks) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  DenseWalkCawn model(&g, SmallConfig());
  model.SetNeighborFinder(&finder);
  model.set_training(true);
  tensor::Rng pick(23);
  // Off the initial point, so that no logit hides behind a zero bias.
  const std::vector<Var> params = model.Parameters();
  for (const Var& p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      p->value.at(i) += pick.Normal(0.0f, 0.3f);
    }
  }
  // Roots at the first event's time have no history; the early events'
  // walks end before their last step; the later ones revisit edges.
  Batch batch;
  for (const int64_t i : {0, 1, 5, 6, 7, 8, 100, 101, 102, 103, 104, 105}) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(i < 2 ? g.event(0).ts : e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  std::vector<int32_t> negatives(batch.srcs.size());
  for (auto& d : negatives) d = 40 + static_cast<int32_t>(pick.UniformInt(15));
  std::unique_ptr<PreparedInputs> prepared =
      model.PrepareBatch(batch, negatives, /*seed=*/5);
  const auto& set = static_cast<const WalkPairSet&>(*prepared->calls[0]);
  // The batch holds what it is meant to.
  const size_t full = static_cast<size_t>(SmallConfig().walk_length) + 1;
  int64_t roots_only = 0, ended = 0, full_walks = 0;
  std::vector<int32_t> step_edges;
  for (const auto& group : set.groups) {
    for (const graph::TemporalWalk& walk : group) {
      roots_only += walk.size() == 1;
      ended += walk.size() > 1 && walk.size() < full;
      full_walks += walk.size() == full;
      if (walk.size() > 1) step_edges.push_back(walk[1].edge_idx);
    }
  }
  EXPECT_GT(roots_only, 0);
  EXPECT_GT(ended, 0);
  EXPECT_GT(full_walks, 0);
  EXPECT_LT(std::set<int32_t>(step_edges.begin(), step_edges.end()).size(),
            step_edges.size());

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::MetricRegistry::OverrideEnabledForTest(1);
  registry.Reset();
  std::vector<tensor::Tensor> got_grads;
  {
    tensor::kernels::TapeScope scope;
    model.SetPreparedInputs(prepared.get());
    Var got = model.ScoreEdges(batch.srcs, batch.dsts, batch.ts);
    model.SetPreparedInputs(nullptr);
    EXPECT_LT(registry.value(obs::Counter::kProjectUniqueRows),
              registry.value(obs::Counter::kProjectRows));
    Var want = model.DenseScores(set, batch.ts);
    ExpectRelClose(got->value, want->value, "walk logits", 1e-6f);
    // The same parameters take both gradients, one pass at a time.
    tensor::ZeroGrad(params);
    Backward(Sum(got));
    for (const Var& p : params) got_grads.push_back(p->grad);
    tensor::ZeroGrad(params);
    Backward(Sum(want));
  }
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
  for (size_t t = 0; t < params.size(); ++t) {
    ExpectRelClose(got_grads[t], params[t]->grad,
                   "parameter " + std::to_string(t), 1e-4f, 1e-6f);
  }
}

/// Central differences of PairLoss(ScoreEdges(pos), ScoreEdges(neg)) for
/// the walk models, on a sampled subset of the walk encoder's parameters:
/// the time encoder, `step_proj_` and every GRU gate, hidden side
/// included. Every evaluation scores the same prepared walks, so all of
/// them see one function.
TEST(WalkModelTest, PairLossGradientMatchesFiniteDifferences) {
  TemporalGraph g = MakeGraph();
  NeighborFinder finder(g);
  const Batch warm = FirstBatch(g, 100);
  Batch batch;
  for (int64_t i = 100; i < 124; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
  }
  for (const ModelKind kind :
       {ModelKind::kCawn, ModelKind::kNeurTw, ModelKind::kMotifJoint}) {
    SCOPED_TRACE(ModelKindName(kind));
    auto model = CreateModel(kind, &g, SmallConfig(), 40);
    model->SetNeighborFinder(&finder);
    model->set_training(true);
    std::vector<int32_t> negatives(batch.srcs.size());
    tensor::Rng pick(3);
    for (auto& d : negatives) {
      d = 40 + static_cast<int32_t>(pick.UniformInt(15));
    }
    std::unique_ptr<PreparedInputs> prepared =
        model->PrepareBatch(batch, negatives, /*seed=*/9);
    // MotifJoint's N-caches draw from the member RNG as they observe.
    const std::string rng_state = model->SaveRngState();
    const auto loss_at_current_parameters = [&] {
      model->Reset();
      model->LoadRngState(rng_state);
      model->UpdateState(warm);
      model->SetPreparedInputs(prepared.get());
      Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
      Var neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
      model->SetPreparedInputs(nullptr);
      return PairLoss(pos, neg);
    };
    // WalkModel::Parameters() opens with the time encoder (frequency,
    // phase), `step_proj_` (weight, bias) and the GRU: update_x (weight,
    // bias), update_h, reset_x (weight, bias), reset_h, cand_x (weight,
    // bias), cand_h.
    const std::vector<Var> params = model->Parameters();
    const size_t checked = 2 + 2 + 9;
    ASSERT_GT(params.size(), checked);
    // Off the initial point: zero-initialised biases put many Relu inputs
    // exactly at 0, where the derivative jumps.
    for (const Var& p : params) {
      for (int64_t i = 0; i < p->value.size(); ++i) {
        p->value.at(i) += pick.Normal(0.0f, 0.1f);
      }
    }
    {
      tensor::kernels::TapeScope scope;
      Var loss = loss_at_current_parameters();
      ASSERT_TRUE(std::isfinite(loss->value.at(0)));
      tensor::ZeroGrad(params);
      Backward(loss);
    }
    for (size_t t = 0; t < checked; ++t) {
      const Var& p = params[t];
      ASSERT_EQ(p->grad.size(), p->value.size()) << "parameter " << t;
      // A walk step's delta spans tens of mean event gaps, so the loss
      // curves in the frequencies about dt² times faster than in the other
      // parameters: a smaller step keeps the difference's truncation error
      // (and its Relu kink crossings) down, and the wider floor admits the
      // float32 rounding of the loss over that step.
      const bool frequency = t == 0;
      const float eps = frequency ? 1e-4f : 5e-4f;
      const float floor = frequency ? 1.5e-3f : 5e-4f;
      for (int sample = 0; sample < 3; ++sample) {
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
                    5e-2f * std::max(std::fabs(analytic),
                                     std::fabs(numeric)) +
                        floor)
            << "entry " << i << " of parameter " << t;
      }
    }
  }
}

}  // namespace
}  // namespace benchtemp::models
