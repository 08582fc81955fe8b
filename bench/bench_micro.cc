// Micro-benchmarks of the substrates (google-benchmark): temporal
// adjacency queries, walk sampling, negative sampling, the tensor kernels
// behind every model, and metric computation. These are the operations the
// paper's efficiency section attributes the model cost differences to
// (e.g. "CAWN and NeurTW are much slower due to their inefficient temporal
// walk operations").

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_sampler.h"
#include "core/evaluator.h"
#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "graph/walks.h"
#include "models/cawn.h"
#include "models/tgat.h"
#include "models/tgn.h"
#include "tensor/autograd.h"
#include "tensor/distinct.h"
#include "tensor/kernels/arena.h"
#include "tensor/kernels/kernels.h"
#include "tensor/modules.h"
#include "tensor/numeric.h"

namespace {

using namespace benchtemp;

graph::TemporalGraph& SharedGraph() {
  // Immortal shared fixture: built once, reused across benchmarks, never
  // destroyed (benchmark process exits with it alive).
  // btlint: allow(mutable-static, raw-new)
  static graph::TemporalGraph& g = *new graph::TemporalGraph([] {
    datagen::SyntheticConfig cfg;
    cfg.num_users = 500;
    cfg.num_items = 200;
    cfg.num_edges = 20000;
    cfg.seed = 3;
    return datagen::Generate(cfg);
  }());
  return g;
}

void BM_NeighborFinderBuild(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  for (auto _ : state) {
    graph::NeighborFinder finder(g);
    benchmark::DoNotOptimize(finder.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * g.num_events());
}
BENCHMARK(BM_NeighborFinderBuild);

void BM_NeighborFinderBeforeQuery(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  graph::NeighborFinder finder(g);
  tensor::Rng rng(1);
  for (auto _ : state) {
    int64_t count = 0;
    finder.Before(tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"),
                  500.0, &count);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborFinderBeforeQuery);

// One attention layer's neighborhood draw at the model shape: 200 queries
// (a training batch), k neighbors each; range(1) is the time window (0 =
// unwindowed, as TGN and DyRep draw; > 0 as TGAT's windowed lookups).
void BM_UniformNeighborSampling(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  graph::NeighborFinder finder(g);
  tensor::Rng rng(1);
  std::vector<int32_t> nodes(200);
  for (int32_t& node : nodes) {
    node = tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id");
  }
  const std::vector<double> ts(nodes.size(), 900.0);
  const int64_t k = state.range(0);
  const double window = static_cast<double>(state.range(1));
  for (auto _ : state) {
    const graph::SampledNeighborhood nb =
        finder.SampleNeighborhood(nodes, ts, k, window, rng);
    benchmark::DoNotOptimize(nb.flat_neighbors.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nodes.size()) * k);
}
BENCHMARK(BM_UniformNeighborSampling)->ArgsProduct({{8, 32}, {0, 100}});

// TGAT's batch preparation at perfbench's tgat-train shape (300 nodes,
// 2,500 events, batch 200, k = 5, two layers). range(0) = 1 builds the
// three prefetched plans of one training batch (PrepareBatch); 0 builds one
// inline plan (Plan), as each eval embedding call does on the training
// thread. Batches cycle through the graph's second half.
void BM_TgatPrepareBatch(benchmark::State& state) {
  // Immortal fixture, as SharedGraph.
  // btlint: allow(mutable-static, raw-new)
  static graph::TemporalGraph& g = *new graph::TemporalGraph([] {
    datagen::SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_edges = 2500;
    cfg.zipf_src = 1.2;
    cfg.zipf_dst = 1.2;
    cfg.time_granularity = 2500;
    cfg.time_span = 2500.0;
    cfg.affinity = 0.9;
    cfg.edge_feature_dim = 100;
    cfg.seed = 1;
    graph::TemporalGraph built = datagen::Generate(cfg);
    built.InitNodeFeatures(48);
    return built;
  }());
  graph::NeighborFinder finder(g);
  models::ModelConfig config;
  config.embedding_dim = 24;
  config.time_dim = 16;
  config.num_neighbors = 5;
  config.num_layers = 2;
  config.num_heads = 2;
  models::Tgat model(&g, config);
  model.SetNeighborFinder(&finder);
  tensor::Rng rng(1);
  std::vector<models::Batch> batches;
  std::vector<std::vector<int32_t>> negatives;
  for (int64_t start = 1250; start + 200 <= g.num_events(); start += 200) {
    models::Batch& batch = batches.emplace_back();
    std::vector<int32_t>& negs = negatives.emplace_back();
    for (int64_t i = start; i < start + 200; ++i) {
      const auto& e = g.event(i);
      batch.srcs.push_back(e.src);
      batch.dsts.push_back(e.dst);
      batch.ts.push_back(e.ts);
      batch.edge_idxs.push_back(e.edge_idx);
      negs.push_back(
          tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"));
    }
  }
  const bool prepared = state.range(0) == 1;
  size_t b = 0;
  uint64_t seed = 0;
  for (auto _ : state) {
    const models::Batch& batch = batches[b];
    if (prepared) {
      benchmark::DoNotOptimize(
          model.PrepareBatch(batch, negatives[b], ++seed));
    } else {
      tensor::Rng draw(++seed);
      benchmark::DoNotOptimize(model.Plan(batch.dsts, batch.ts, draw));
    }
    b = (b + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_TgatPrepareBatch)->Arg(1)->Arg(0);

// One ranked TGN eval batch at perfbench's tgn-rank shape (600 nodes,
// 6,000 events, batch 200, k = 100 candidates, 8 neighbours): a single
// ScoreCandidates call, forward only. The memory is warmed on the first
// half of the events; batches cycle through the second half, each with
// uniform candidates.
void BM_TgnScoreCandidates(benchmark::State& state) {
  // Immortal fixture, as SharedGraph.
  // btlint: allow(mutable-static, raw-new)
  static graph::TemporalGraph& g = *new graph::TemporalGraph([] {
    datagen::SyntheticConfig cfg;
    cfg.num_users = 600;
    cfg.num_edges = 6000;
    cfg.zipf_src = 1.2;
    cfg.zipf_dst = 1.2;
    cfg.time_granularity = 6000;
    cfg.time_span = 6000.0;
    cfg.edge_reuse_prob = 0.5;
    cfg.affinity = 0.9;
    cfg.edge_feature_dim = 100;
    cfg.seed = 1;
    return datagen::Generate(cfg);
  }());
  constexpr int kCandidates = 100;
  graph::NeighborFinder finder(g);
  models::ModelConfig config;
  config.embedding_dim = 24;
  config.time_dim = 16;
  config.num_neighbors = 8;
  config.num_heads = 2;
  models::Tgn model(&g, config);
  model.SetNeighborFinder(&finder);
  model.Reset();
  model.set_training(false);
  const int64_t half = g.num_events() / 2;
  std::vector<models::Batch> batches;
  for (int64_t start = 0; start + 200 <= g.num_events(); start += 200) {
    models::Batch batch;
    for (int64_t i = start; i < start + 200; ++i) {
      const auto& e = g.event(i);
      batch.srcs.push_back(e.src);
      batch.dsts.push_back(e.dst);
      batch.ts.push_back(e.ts);
      batch.edge_idxs.push_back(e.edge_idx);
    }
    if (start < half) {
      model.UpdateState(batch);
    } else {
      batches.push_back(std::move(batch));
    }
  }
  tensor::Rng rng(1);
  std::vector<std::vector<int32_t>> candidates(batches.size());
  for (std::vector<int32_t>& c : candidates) {
    c.resize(200 * kCandidates);
    for (int32_t& node : c) {
      node = tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id");
    }
  }
  {
    // Untimed: applies the last warm batch's pending memory update.
    tensor::kernels::TapeScope scope;
    (void)model.ScoreCandidates(batches[0].srcs, candidates[0],
                                batches[0].ts, kCandidates);
  }
  size_t b = 0;
  int64_t arena_floats = 0;
  for (auto _ : state) {
    tensor::kernels::TapeScope scope;
    const models::Batch& batch = batches[b];
    benchmark::DoNotOptimize(
        model.ScoreCandidates(batch.srcs, candidates[b], batch.ts,
                              kCandidates)
            ->value.data());
    arena_floats += tensor::kernels::Arena::ThreadLocal().LiveFloats();
    b = (b + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * 200 * kCandidates);
  // Bytes one call bump-allocates from the tape arena (what the
  // kArenaBytes counter adds per call), so memory shows beside time.
  state.counters["arena_bytes"] = benchmark::Counter(
      static_cast<double>(arena_floats) * sizeof(float),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TgnScoreCandidates)->Unit(benchmark::kMillisecond);

// CAWN's walk encoder at perfbench's cawn-train shape (300 users, 100
// items, 6,000 events, 3 walks of length 2 per root, edge dim 100): the
// forward and backward pass of one prepared pair set of 200 pairs, the
// positive half of a training batch from the graph's second half.
void BM_WalkEncode(benchmark::State& state) {
  // Immortal fixture, as SharedGraph.
  // btlint: allow(mutable-static, raw-new)
  static graph::TemporalGraph& g = *new graph::TemporalGraph([] {
    datagen::SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_items = 100;
    cfg.num_edges = 6000;
    cfg.zipf_src = 1.2;
    cfg.zipf_dst = 1.2;
    cfg.time_granularity = 6000;
    cfg.time_span = 6000.0;
    cfg.edge_reuse_prob = 0.5;
    cfg.affinity = 0.9;
    cfg.edge_feature_dim = 100;
    cfg.seed = 1;
    return datagen::Generate(cfg);
  }());
  graph::NeighborFinder finder(g);
  models::ModelConfig config;
  config.embedding_dim = 24;
  config.time_dim = 16;
  config.num_walks = 3;
  config.walk_length = 2;
  models::Cawn model(&g, config);
  model.SetNeighborFinder(&finder);
  model.set_training(true);
  models::Batch batch;
  std::vector<int32_t> negatives;
  tensor::Rng rng(1);
  for (int64_t i = 3000; i < 3200; ++i) {
    const auto& e = g.event(i);
    batch.srcs.push_back(e.src);
    batch.dsts.push_back(e.dst);
    batch.ts.push_back(e.ts);
    batch.edge_idxs.push_back(e.edge_idx);
    negatives.push_back(
        tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"));
  }
  const std::unique_ptr<models::PreparedInputs> prepared =
      model.PrepareBatch(batch, negatives, /*seed=*/1);
  int64_t arena_floats = 0;
  for (auto _ : state) {
    tensor::kernels::TapeScope scope;
    model.SetPreparedInputs(prepared.get());
    tensor::Var logits = model.ScoreEdges(batch.srcs, batch.dsts, batch.ts);
    model.SetPreparedInputs(nullptr);
    tensor::Backward(tensor::Sum(logits));
    benchmark::DoNotOptimize(logits->value.data());
    arena_floats += tensor::kernels::Arena::ThreadLocal().LiveFloats();
  }
  state.SetItemsProcessed(state.iterations() * 200);
  // Bytes one call bump-allocates from the tape arena, as above.
  state.counters["arena_bytes"] = benchmark::Counter(
      static_cast<double>(arena_floats) * sizeof(float),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WalkEncode)->Unit(benchmark::kMillisecond);

// Dedup, the one first-occurrence index, over node ids (range(0) = 0),
// float time deltas (1) and TGAT's {node, time} query keys (2).
// range(1) = 0 is the ranked pass's shape: 160,000 key slots, the ids over
// perfbench's 600 nodes, the deltas and queries drawn from 10,500 distinct
// keys (what one tgn-rank batch names). range(1) = 1 is a TGAT plan
// level at tgat-train's shape: 7,200 keys, the ids over 300 nodes, the
// deltas and queries drawn from 1,200 distinct keys.
void BM_Dedup(benchmark::State& state) {
  struct QueryKey {
    int64_t node;
    double t;
  };
  const bool ranked = state.range(1) == 0;
  const size_t n = ranked ? 160000 : 7200;
  const int64_t nodes = ranked ? 600 : 300;
  const int64_t distinct = ranked ? 10500 : 1200;
  tensor::Rng rng(7);
  std::vector<float> delta_pool;
  std::vector<QueryKey> query_pool;
  for (int64_t i = 0; i < distinct; ++i) {
    delta_pool.push_back(rng.UniformReal(0.0f, 6000.0f));
    query_pool.push_back(
        {rng.UniformInt(nodes), static_cast<double>(rng.UniformInt(6000))});
  }
  std::vector<int32_t> ids;
  std::vector<float> deltas;
  std::vector<QueryKey> queries;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(tensor::NarrowId(rng.UniformInt(nodes), "bench: node id"));
    deltas.push_back(delta_pool[static_cast<size_t>(rng.UniformInt(distinct))]);
    queries.push_back(
        query_pool[static_cast<size_t>(rng.UniformInt(distinct))]);
  }
  const auto run = [&state](const auto& keys) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(tensor::Dedup(keys).slot.data());
    }
  };
  switch (state.range(0)) {
    case 0:
      run(ids);
      break;
    case 1:
      run(deltas);
      break;
    default:
      run(queries);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Dedup)->ArgsProduct({{0, 1, 2}, {0, 1}});

void BM_TemporalWalk(benchmark::State& state) {
  const graph::TemporalGraph& g = SharedGraph();
  graph::NeighborFinder finder(g);
  const graph::WalkBias bias =
      state.range(0) == 0 ? graph::WalkBias::kUniform
      : state.range(0) == 1 ? graph::WalkBias::kExponential
                            : graph::WalkBias::kLinearSafe;
  graph::TemporalWalkSampler sampler(bias, 0.01);
  tensor::Rng rng(1);
  for (auto _ : state) {
    const auto walk = sampler.SampleWalk(
        finder, tensor::NarrowId(rng.UniformInt(g.num_nodes()), "bench: node id"), 900.0,
        4, rng);
    benchmark::DoNotOptimize(walk.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemporalWalk)->Arg(0)->Arg(1)->Arg(2);

void BM_RandomNegativeSampling(benchmark::State& state) {
  core::RandomEdgeSampler sampler(0, 700, 1);
  std::vector<int32_t> srcs(200, 0);
  std::vector<int32_t> dsts(200, 350);
  uint64_t stream_seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.SampleNegativesKeyed(++stream_seed, srcs, dsts));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RandomNegativeSampling);

void BM_Project(benchmark::State& state) {
  // Arg 1: one 128-wide square block {x}. Arg 4: TGN's message at
  // perfbench's shape, [mem(node) | mem(other) | edge | time_enc] = 24 +
  // 24 + 100 + 16 columns over a 200-event batch's 400 endpoints, projected
  // to the 24-wide memory.
  tensor::Rng rng(1);
  const bool message = state.range(0) == 4;
  const int64_t n = message ? 400 : 128, m = message ? 24 : 128;
  std::vector<tensor::ColBlock> blocks;
  int64_t width = 0;
  for (const int64_t w : message ? std::vector<int64_t>{24, 24, 100, 16}
                                 : std::vector<int64_t>{128}) {
    blocks.emplace_back(tensor::Constant(tensor::Tensor::Randn({n, w}, rng)));
    width += w;
  }
  tensor::Var w = tensor::Constant(tensor::Tensor::Randn({width, m}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Project(blocks, w)->value.at(0));
  }
  state.SetItemsProcessed(state.iterations() * n * width * m);
}
BENCHMARK(BM_Project)->Arg(1)->Arg(4);

void BM_GruForwardBackward(benchmark::State& state) {
  tensor::Rng rng(1);
  tensor::GruCell gru(64, 64, rng);
  tensor::Var x = tensor::Constant(tensor::Tensor::Randn({200, 64}, rng));
  tensor::Var h = tensor::Constant(tensor::Tensor::Randn({200, 64}, rng));
  for (auto _ : state) {
    tensor::Var loss = tensor::Sum(gru.Forward({x}, h));
    tensor::ZeroGrad(gru.Parameters());
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_GruForwardBackward);

void BM_AttentionForward(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t k = 8;
  tensor::MultiHeadAttention attn(64, 64, 64, 2, rng);
  // Query blocks as TGN builds them: 200 rows over 50 distinct memory
  // rows, beside one time-encoding row they all share.
  std::vector<int32_t> idx(200);
  for (int32_t& i : idx) i = tensor::NarrowId(rng.UniformInt(50), "row");
  const auto memory = tensor::Rows(tensor::Tensor::Randn({50, 48}, rng), idx);
  const auto zero_dt =
      tensor::RowsOf(tensor::Constant(tensor::Tensor::Randn({1, 16}, rng)),
                     std::vector<int32_t>(200, 0));
  tensor::Var kv =
      tensor::Constant(tensor::Tensor::Randn({200 * k, 64}, rng));
  tensor::Tensor mask = tensor::Tensor::Ones({200, k});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attn.Forward({memory, zero_dt}, {kv}, mask, k)->value.at(0));
  }
  state.SetItemsProcessed(state.iterations() * 200 * k);
}
BENCHMARK(BM_AttentionForward);

// One TGN attention call at perfbench's tgn-train shape (500 nodes, 4,000
// events with 100 edge features, 200 queries over 8 neighbours, model 24,
// time 16, 2 heads), forward and backward. The query and key terms are
// gathered as Tgn::ComputeEmbeddings gathers them: memory rows once per
// distinct node (from a trainable table), the neighbours' edge rows, and
// each distinct time delta's encoding (a trainable TimeEncoder).
void BM_AttentionForwardBackward(benchmark::State& state) {
  tensor::Rng rng(1);
  constexpr int64_t kQueries = 200, kKeys = 8, kNodes = 500, kEdges = 4000;
  tensor::MultiHeadAttention attn(24 + 16, 24 + 100 + 16, 24, 2, rng);
  tensor::TimeEncoder time_encoder(16);
  tensor::Var memory =
      tensor::Parameter(tensor::Tensor::Randn({kNodes, 24}, rng));
  const tensor::Tensor edges = tensor::Tensor::Randn({kEdges, 100}, rng);
  std::vector<int32_t> nodes(kQueries), neighbors(kQueries * kKeys);
  std::vector<int32_t> edge_idxs(kQueries * kKeys);
  std::vector<float> dts(kQueries * kKeys);
  for (int32_t& n : nodes) n = tensor::NarrowId(rng.UniformInt(kNodes), "node");
  for (int32_t& n : neighbors) {
    n = tensor::NarrowId(rng.UniformInt(kNodes), "node");
  }
  for (int32_t& e : edge_idxs) {
    e = tensor::NarrowId(rng.UniformInt(kEdges), "edge");
  }
  for (float& dt : dts) dt = static_cast<float>(rng.UniformInt(kEdges));
  const std::vector<float> zero_dts(kQueries, 0.0f);
  tensor::Tensor mask = tensor::Tensor::Ones({kQueries, kKeys});
  for (int64_t i = 0; i < kQueries; i += 7) mask.at(i, kKeys - 1) = 0.0f;
  std::vector<tensor::Var> params = attn.Parameters();
  for (const tensor::Var& p : time_encoder.Parameters()) params.push_back(p);
  params.push_back(memory);
  // MemoryModel::MemoryRows: one gathered row per distinct node.
  const auto memory_rows = [&](const std::vector<int32_t>& ids) {
    tensor::Distinct<int32_t> distinct = tensor::Dedup(ids);
    return tensor::RowsOf(tensor::GatherRows(memory, distinct.values),
                          std::move(distinct.slot));
  };
  int64_t arena_floats = 0;
  for (auto _ : state) {
    tensor::kernels::TapeScope scope;
    const auto query_memory = memory_rows(nodes);
    tensor::Var loss = tensor::Sum(attn.Forward(
        {query_memory, time_encoder.EncodeRows(zero_dts)},
        {memory_rows(neighbors), tensor::Rows(edges, edge_idxs),
         time_encoder.EncodeRows(dts)},
        mask, kKeys));
    tensor::ZeroGrad(params);
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss->value.at(0));
    arena_floats += tensor::kernels::Arena::ThreadLocal().LiveFloats();
  }
  state.SetItemsProcessed(state.iterations() * kQueries * kKeys);
  // Bytes one call bump-allocates from the tape arena, forward and
  // backward together.
  state.counters["arena_bytes"] = benchmark::Counter(
      static_cast<double>(arena_floats) * sizeof(float),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AttentionForwardBackward)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Kernel-layer microbenchmarks (BM_Kernel*; `--kernels` runs only these and
// emits BENCH_kernels.json). Each GEMM benchmark takes (n, k, m) for
// C[n,m] = A[n,k] * B[k,m] and its two backward passes, one benchmark per
// kernel so the artifact attributes time to each. Shapes: the n=200 batch
// at inner dims 172 (Reddit edge-feature concat), 100 (node features) and
// 64 (embedding/attention), plus the shapes that dominate a profile of the
// perfbench workloads: 7500-row projections at k=24 and k=16 and a
// 1500-row one at k=40 (all m=24), and the m=1 predictor output over 400
// rows.
// ---------------------------------------------------------------------------

void GemmShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "k", "m"});
  for (const int64_t k : {172, 100, 64}) b->Args({200, k, 64});
  b->Args({7500, 24, 24});
  b->Args({7500, 16, 24});
  b->Args({1500, 40, 24});
  b->Args({400, 24, 1});
}

struct GemmOperands {
  explicit GemmOperands(const benchmark::State& state)
      : n(state.range(0)), k(state.range(1)), m(state.range(2)) {
    tensor::Rng rng(1);
    a = tensor::Tensor::Randn({n, k}, rng);
    b = tensor::Tensor::Randn({k, m}, rng);
    c = tensor::Tensor::Randn({n, m}, rng);
  }
  int64_t n, k, m;
  tensor::Tensor a, b, c;
};

void BM_KernelGemm(benchmark::State& state) {
  const GemmOperands g(state);
  tensor::Tensor c({g.n, g.m});
  for (auto _ : state) {
    c.Fill(0.0f);
    tensor::kernels::Gemm(g.a.data(), g.b.data(), c.data(), g.n, g.k, g.m);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.n * g.k * g.m);
}
BENCHMARK(BM_KernelGemm)->Apply(GemmShapes);

void BM_KernelGemmNT(benchmark::State& state) {
  // Project backward for a block: dA[n,k] += dC[n,m] * B[k,m]^T.
  const GemmOperands g(state);
  tensor::Tensor da({g.n, g.k});
  for (auto _ : state) {
    da.Fill(0.0f);
    tensor::kernels::GemmNT(g.c.data(), g.b.data(), da.data(), g.n, g.k,
                            g.m);
    benchmark::DoNotOptimize(da.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.n * g.k * g.m);
}
BENCHMARK(BM_KernelGemmNT)->Apply(GemmShapes);

void BM_KernelGemmTN(benchmark::State& state) {
  // Project backward for the weight: dB[k,m] += A[n,k]^T * dC[n,m].
  const GemmOperands g(state);
  tensor::Tensor db({g.k, g.m});
  for (auto _ : state) {
    db.Fill(0.0f);
    tensor::kernels::GemmTN(g.a.data(), g.c.data(), db.data(), g.n, g.k,
                            g.m);
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.n * g.k * g.m);
}
BENCHMARK(BM_KernelGemmTN)->Apply(GemmShapes);

void BM_KernelSoftmaxRow(benchmark::State& state) {
  // The attention-score row shape: batch of 200 rows over k=8 keys, plus a
  // wider row for the vector path.
  tensor::Rng rng(1);
  const int64_t n = 200, d = state.range(0);
  const tensor::Tensor in = tensor::Tensor::Randn({n, d}, rng);
  const tensor::Tensor mask = tensor::Tensor::Ones({n, d});
  tensor::Tensor out({n, d});
  for (auto _ : state) {
    for (int64_t r = 0; r < n; ++r) {
      tensor::kernels::SoftmaxRow(in.data() + r * d, mask.data() + r * d, d,
                                  out.data() + r * d);
    }
    benchmark::DoNotOptimize(out.at(0));
  }
  state.SetItemsProcessed(state.iterations() * n * d);
}
BENCHMARK(BM_KernelSoftmaxRow)->Arg(8)->Arg(64);

void BM_KernelBce(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = 400;  // pos+neg scores of one batch
  const tensor::Tensor logits = tensor::Tensor::Randn({n}, rng);
  tensor::Tensor targets({n});
  for (int64_t i = 0; i < n; ++i) targets.at(i) = i % 2 == 0 ? 1.0f : 0.0f;
  tensor::Tensor grad({n});
  for (auto _ : state) {
    const float loss =
        tensor::kernels::BceForwardMean(logits.data(), targets.data(), n);
    grad.Fill(0.0f);
    tensor::kernels::BceBackward(grad.data(), logits.data(), targets.data(),
                                 loss, n);
    benchmark::DoNotOptimize(grad.at(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelBce);

void BM_KernelReduceDot(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = state.range(0);
  const tensor::Tensor x = tensor::Tensor::Randn({n}, rng);
  const tensor::Tensor y = tensor::Tensor::Randn({n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::kernels::ReduceSum(x.data(), n));
    benchmark::DoNotOptimize(tensor::kernels::Dot(x.data(), y.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_KernelReduceDot)->Arg(64)->Arg(4096);

void BM_RocAuc(benchmark::State& state) {
  tensor::Rng rng(1);
  const int64_t n = state.range(0);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int64_t i = 0; i < n; ++i) {
    scores.push_back(rng.UniformReal(0.0f, 1.0f));
    labels.push_back(static_cast<int>(rng.UniformInt(2)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RocAuc(scores, labels));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RocAuc)->Arg(1000)->Arg(100000);

void BM_SyntheticGeneration(benchmark::State& state) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 120;
  cfg.num_edges = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::Generate(cfg).num_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticGeneration)->Arg(2000);

}  // namespace

int main(int argc, char** argv) {
  // `--kernels` restricts the run to the kernel-layer benchmarks and emits
  // the artifact as BENCH_kernels.json (the CI kernel-bench smoke leg).
  bool kernels_only = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernels") == 0) {
      kernels_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string filter = "--benchmark_filter=BM_Kernel";
  if (kernels_only) args.push_back(filter.data());
  int filtered_argc = static_cast<int>(args.size());
  benchtemp::bench::BenchArtifact artifact(kernels_only ? "kernels" : "micro");
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
