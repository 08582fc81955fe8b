#include "tensor/modules.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tensor/numeric.h"
#include "tensor/optimizer.h"

namespace benchtemp::tensor {
namespace {

TEST(ModulesTest, LinearShapesAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Var x = Constant(Tensor::Randn({5, 4}, rng));
  Var y = layer.Forward({x});
  EXPECT_EQ(y->value.shape(), (std::vector<int64_t>{5, 3}));
  EXPECT_EQ(layer.Parameters().size(), 2u);
  Linear no_bias(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(ModulesTest, MlpLearnsLinearMap) {
  Rng rng(2);
  Mlp mlp({2, 8, 1}, rng);
  Adam opt(mlp.Parameters(), 5e-2f);
  // Fit y = x0 - 2*x1. The target is stored negated, so the residual
  // prediction - y is one Add.
  Tensor x_data = Tensor::Randn({64, 2}, rng);
  Tensor neg_y_data({64, 1});
  for (int64_t i = 0; i < 64; ++i) {
    neg_y_data.at(i) = -(x_data.at(i, 0) - 2.0f * x_data.at(i, 1));
  }
  Var x = Constant(x_data);
  Var neg_y = Constant(neg_y_data);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 300; ++step) {
    // Mean squared error.
    Var diff = Add(mlp.Forward({x}), neg_y);
    Var loss = ScalarMul(Sum(Mul(diff, diff)), 1.0f / 64.0f);
    if (step == 0) first_loss = loss->value.at(0);
    last_loss = loss->value.at(0);
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  EXPECT_LT(last_loss, 0.05f * first_loss);
}

TEST(ModulesTest, GruCellStaysBoundedAndDiffers) {
  Rng rng(3);
  GruCell gru(4, 6, rng);
  Var x = Constant(Tensor::Randn({3, 4}, rng));
  Var h = Constant(Tensor::Randn({3, 6}, rng, 0.5f));
  Var out = gru.Forward({x}, h);
  EXPECT_EQ(out->value.shape(), (std::vector<int64_t>{3, 6}));
  bool changed = false;
  for (int64_t i = 0; i < out->value.size(); ++i) {
    EXPECT_LT(std::fabs(out->value.at(i)), 1.5f);
    if (std::fabs(out->value.at(i) - h->value.at(i)) > 1e-6f) changed = true;
  }
  EXPECT_TRUE(changed);
  EXPECT_EQ(gru.Parameters().size(), 9u);  // 3 gates x (Wx+b, Wh)
}

TEST(ModulesTest, RnnCellOutputsInTanhRange) {
  Rng rng(4);
  RnnCell rnn(4, 5, rng);
  Var out = rnn.Forward({Constant(Tensor::Randn({2, 4}, rng))},
                        Constant(Tensor::Randn({2, 5}, rng)));
  for (int64_t i = 0; i < out->value.size(); ++i) {
    EXPECT_LE(std::fabs(out->value.at(i)), 1.0f);
  }
}

// ---------------------------------------------------------------------------
// Block-input modules against central differences, in float32. The input
// is a constant block beside a trainable one (and, for the cells, a
// trainable h). The constant block gets no gradient, and the backward pass
// runs the input-gradient GEMM for the trainable block only.
// ---------------------------------------------------------------------------

/// d(loss)/d(param) against central differences for every entry of
/// `param`; `loss_fn` rebuilds the loss from scratch.
void CheckGradient(const Var& param, const std::function<Var()>& loss_fn) {
  ZeroGrad({param});
  Backward(loss_fn());
  const Tensor analytic = param->grad;
  ASSERT_EQ(analytic.size(), param->value.size());
  const float eps = 1e-3f;
  for (int64_t i = 0; i < param->value.size(); ++i) {
    const float saved = param->value.at(i);
    param->value.at(i) = saved + eps;
    const float up = loss_fn()->value.at(0);
    param->value.at(i) = saved - eps;
    const float down = loss_fn()->value.at(0);
    param->value.at(i) = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic.at(i), numeric,
                2e-2f * std::max(1.0f, std::fabs(numeric)))
        << "entry " << i;
  }
}

/// Checks every parameter of `module` and every `trainable` input of
/// `forward` against central differences, that `constant` gets no
/// gradient, and that one backward pass counts `backward_flops`.
void CheckBlockModule(const Module& module, const std::vector<Var>& trainable,
                      const Var& constant, const std::function<Var()>& forward,
                      int64_t backward_flops) {
  Rng rng(40);
  const Tensor g = Tensor::Randn(forward()->value.shape(), rng);
  const auto loss = [&] { return Sum(Mul(Tanh(forward()), Constant(g))); };
  for (const Var& p : module.Parameters()) CheckGradient(p, loss);
  for (const Var& x : trainable) CheckGradient(x, loss);
  EXPECT_EQ(constant->grad.size(), 0);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::MetricRegistry::OverrideEnabledForTest(1);
  Var l = loss();
  registry.Reset();
  Backward(l);
  EXPECT_EQ(registry.value(obs::Counter::kKernelFlops), backward_flops);
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
}

// Rows, the constant and trainable block widths, and the hidden width.
constexpr int64_t kRows = 5, kConstW = 3, kTrainW = 4, kHidden = 6;

TEST(ModulesTest, GruCellBlocksGradcheck) {
  Rng rng(41);
  GruCell gru(kConstW + kTrainW, kHidden, rng);
  Var c = Constant(Tensor::Randn({kRows, kConstW}, rng));
  Var x = Parameter(Tensor::Randn({kRows, kTrainW}, rng));
  Var h = Parameter(Tensor::Randn({kRows, kHidden}, rng, 0.5f));
  // Per gate: dW over both blocks and dX over x alone on the input side;
  // dW and dh on the hidden side (the candidate's r * h takes a gradient).
  const int64_t n = kRows, hd = kHidden;
  CheckBlockModule(
      gru, {x, h}, c, [&] { return gru.Forward({c, x}, h); },
      3 * 2 * n * hd * (kConstW + 2 * kTrainW) + 3 * 4 * n * hd * hd);
}

TEST(ModulesTest, GruCellZeroStateMatchesZeroHidden) {
  Rng rng(44);
  GruCell gru(kConstW + kTrainW, kHidden, rng);
  Var c = Constant(Tensor::Randn({kRows, kConstW}, rng));
  Var x = Parameter(Tensor::Randn({kRows, kTrainW}, rng));
  const Tensor g = Tensor::Randn({kRows, kHidden}, rng);
  std::vector<Var> leaves = gru.Parameters();
  leaves.push_back(x);
  const auto loss = [&](const Var& y) {
    return Sum(Mul(Tanh(y), Constant(g)));
  };
  // The output, then every leaf's gradient; one the pass never touched
  // reads as zeros.
  const auto run = [&](const Var& h) {
    for (const Var& p : leaves) p->grad = Tensor();
    Var y = gru.Forward({c, x}, h);
    Backward(loss(y));
    std::vector<Tensor> out = {y->value};
    for (const Var& p : leaves) {
      out.push_back(p->grad.size() > 0 ? p->grad
                                       : Tensor::Zeros(p->value.shape()));
    }
    return out;
  };
  const std::vector<Tensor> zero_state = run(nullptr);
  const std::vector<Tensor> zero_hidden =
      run(Constant(Tensor::Zeros({kRows, kHidden})));
  ASSERT_EQ(zero_state.size(), zero_hidden.size());
  for (size_t t = 0; t < zero_state.size(); ++t) {
    ASSERT_EQ(zero_state[t].shape(), zero_hidden[t].shape()) << t;
    for (int64_t i = 0; i < zero_state[t].size(); ++i) {
      // Equal, with +0 and -0 equal.
      EXPECT_TRUE(ExactlyEqual(zero_state[t].at(i), zero_hidden[t].at(i)))
          << "tensor " << t << " entry " << i;
    }
  }

  // The zero-state tape: the update and candidate gates' x-side Project,
  // with no h-side Project, no reset gate and no r * h.
  Var y = gru.Forward({c, x}, nullptr);
  std::multiset<std::string> ops;
  std::set<const VarNode*> seen;
  std::vector<const VarNode*> stack = {y.get()};
  while (!stack.empty()) {
    const VarNode* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    ops.insert(node->op);
    for (const Var& p : node->parents) stack.push_back(p.get());
  }
  EXPECT_EQ(ops.count("Project"), 2u);
  EXPECT_EQ(ops.count("Sigmoid"), 1u);
  EXPECT_EQ(ops.count("Mul"), 0u);
  EXPECT_EQ(ops.count("Add"), 0u);
  // Per gate, dW over both blocks and dX over x alone.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::MetricRegistry::OverrideEnabledForTest(1);
  Var l = loss(y);
  registry.Reset();
  Backward(l);
  EXPECT_EQ(registry.value(obs::Counter::kKernelFlops),
            2 * 2 * kRows * kHidden * (kConstW + 2 * kTrainW));
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
}

TEST(ModulesTest, RnnCellBlocksGradcheck) {
  Rng rng(42);
  RnnCell rnn(kConstW + kTrainW, kHidden, rng);
  Var c = Constant(Tensor::Randn({kRows, kConstW}, rng));
  Var x = Parameter(Tensor::Randn({kRows, kTrainW}, rng));
  Var h = Parameter(Tensor::Randn({kRows, kHidden}, rng, 0.5f));
  const int64_t n = kRows, hd = kHidden;
  CheckBlockModule(rnn, {x, h}, c, [&] { return rnn.Forward({c, x}, h); },
                   2 * n * hd * (kConstW + 2 * kTrainW) + 4 * n * hd * hd);
}

TEST(ModulesTest, MlpBlocksGradcheck) {
  Rng rng(43);
  const int64_t out = 2;
  Mlp mlp({kConstW + kTrainW, kHidden, out}, rng);
  Var c = Constant(Tensor::Randn({kRows, kConstW}, rng));
  Var x = Parameter(Tensor::Randn({kRows, kTrainW}, rng));
  // The second layer's input, ReLU of the first, takes a gradient.
  const int64_t n = kRows, hd = kHidden;
  CheckBlockModule(mlp, {x}, c, [&] { return mlp.Forward({c, x}); },
                   2 * n * hd * (kConstW + 2 * kTrainW) + 4 * n * hd * out);
}

TEST(ModulesTest, TimeEncoderRangeAndZeroDelta) {
  TimeEncoder encoder(8);
  Var enc = encoder.Encode({0.0f, 1.0f, 100.0f});
  EXPECT_EQ(enc->value.shape(), (std::vector<int64_t>{3, 8}));
  // cos(0 * w + 0) == 1 for every frequency.
  for (int64_t c = 0; c < 8; ++c) EXPECT_NEAR(enc->value.at(0, c), 1.0f, 1e-5f);
  for (int64_t i = 0; i < enc->value.size(); ++i) {
    EXPECT_LE(std::fabs(enc->value.at(i)), 1.0f + 1e-6f);
  }
}

TEST(ModulesTest, TimeEncoderDistinguishesDeltas) {
  TimeEncoder encoder(8);
  Var enc = encoder.Encode({1.0f, 50.0f});
  float diff = 0.0f;
  for (int64_t c = 0; c < 8; ++c) {
    diff += std::fabs(enc->value.at(0, c) - enc->value.at(1, c));
  }
  EXPECT_GT(diff, 0.1f);
}

TEST(ModulesTest, MlpOverTwoBlocksShape) {
  // The predictor's shape: two embeddings' blocks in, one logit out.
  Rng rng(7);
  Mlp merge({4 + 6, 8, 1}, rng);
  Var out = merge.Forward({Constant(Tensor::Randn({3, 4}, rng)),
                           Constant(Tensor::Randn({3, 6}, rng))});
  EXPECT_EQ(out->value.shape(), (std::vector<int64_t>{3, 1}));
  EXPECT_EQ(merge.Parameters().size(), 4u);
}

TEST(ModulesTest, AttentionShapeAndMasking) {
  Rng rng(8);
  const int64_t k = 4;
  MultiHeadAttention attn(6, 5, 8, 2, rng);
  Var q = Constant(Tensor::Randn({3, 6}, rng));
  Var kv = Constant(Tensor::Randn({3 * k, 5}, rng));
  Tensor mask({3, k});
  mask.Fill(1.0f);
  Var out = attn.Forward({q}, {kv}, mask, k);
  EXPECT_EQ(out->value.shape(), (std::vector<int64_t>{3, 8}));
}

TEST(ModulesTest, AttentionIgnoresMaskedKeys) {
  Rng rng(9);
  const int64_t k = 3;
  MultiHeadAttention attn(4, 4, 8, 1, rng);
  Var q = Constant(Tensor::Randn({1, 4}, rng));
  Tensor kv_data = Tensor::Randn({k, 4}, rng);
  // Run once with key 2 masked, then change key 2 wildly: output must not
  // move.
  Tensor mask = Tensor::FromVector({1, k}, {1, 1, 0});
  Var out1 = attn.Forward({q}, {Constant(kv_data)}, mask, k);
  for (int64_t c = 0; c < 4; ++c) kv_data.at(2, c) = 1000.0f;
  Var out2 = attn.Forward({q}, {Constant(kv_data)}, mask, k);
  for (int64_t i = 0; i < out1->value.size(); ++i) {
    EXPECT_NEAR(out1->value.at(i), out2->value.at(i), 1e-4f);
  }
}

/// The rows of `table` at `idx` as one dense tensor.
Tensor GatherDense(const Tensor& table, const std::vector<int32_t>& idx) {
  Tensor out({static_cast<int64_t>(idx.size()), table.cols()});
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = table.at(idx[static_cast<size_t>(r)], c);
    }
  }
  return out;
}

TEST(ModulesTest, AttentionOverGatheredBlocksMatchesDenseBlocks) {
  // Keys given as {dense, gathered rows} blocks, and queries as {gathered
  // rows, one shared row} as TGN and TGAT build them, must attend like the
  // same rows materialized as dense blocks, up to float reassociation.
  const int64_t b = 3, k = 4;
  Rng rng(12);
  MultiHeadAttention attn(4 + 2, 5 + 7, 8, 2, rng);
  const Tensor q_table = Tensor::Randn({2, 4}, rng);
  const std::vector<int32_t> q_idx = {1, 0, 1};
  const Tensor shared = Tensor::Randn({1, 2}, rng);
  const std::vector<int32_t> zeros(b, 0);
  Var dense = Constant(Tensor::Randn({b * k, 5}, rng));
  const Tensor table = Tensor::Randn({6, 7}, rng);
  const std::vector<int32_t> idx = {0, 2, 2, 5, 0, 0, 1, 2, 5, 5, 0, 3};
  Tensor mask({b, k});
  mask.Fill(1.0f);
  mask.at(1, 3) = 0.0f;
  Var blocks_out = attn.Forward(
      {Rows(q_table, q_idx), RowsOf(Constant(shared), zeros)},
      {dense, Rows(table, idx)}, mask, k);
  Var dense_out = attn.Forward(
      {Constant(GatherDense(q_table, q_idx)),
       Constant(GatherDense(shared, zeros))},
      {dense, Constant(GatherDense(table, idx))}, mask, k);
  ASSERT_EQ(blocks_out->value.shape(), dense_out->value.shape());
  for (int64_t i = 0; i < blocks_out->value.size(); ++i) {
    EXPECT_NEAR(blocks_out->value.at(i), dense_out->value.at(i), 1e-5f);
  }
}

TEST(ModulesTest, AttentionBuildsNoCopyOrBiasNodes) {
  // One Attention node runs every head: it reads q's columns in place and
  // sums each key's K and V rows once from the projected rows
  // (ProjectRows: no [B*K, model] tensor), its [B, model] output enters
  // the output projection as one block, and every bias is added inside
  // its projection or the node: no per-head score, softmax, slice,
  // concatenation or Add node on the tape.
  const int64_t b = 4, k = 3;
  Rng rng(14);
  MultiHeadAttention attn(5, 6, 8, 2, rng);
  Var q = Parameter(Tensor::Randn({b, 5}, rng));
  Var keys = Parameter(Tensor::Randn({b * k, 6}, rng));
  Tensor mask({b, k});
  mask.Fill(1.0f);
  Var out = attn.Forward({q}, {keys}, mask, k);
  std::vector<const VarNode*> stack = {out.get()};
  std::set<const VarNode*> seen = {out.get()};
  std::vector<std::string> ops;
  while (!stack.empty()) {
    const VarNode* node = stack.back();
    stack.pop_back();
    ops.emplace_back(node->op);
    for (const Var& p : node->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  for (const char* banned : {"ConcatRows", "GatherRows", "Add"}) {
    EXPECT_EQ(std::count(ops.begin(), ops.end(), banned), 0) << banned;
  }
  EXPECT_EQ(std::count(ops.begin(), ops.end(), "Project"), 2);
  EXPECT_EQ(std::count(ops.begin(), ops.end(), "ProjectRows"), 2);
  EXPECT_EQ(std::count(ops.begin(), ops.end(), "Attention"), 1);
  EXPECT_EQ(ops.size(), 5u + 2u * 4u + 2u);  // nodes, parameters, inputs
}

TEST(ModulesTest, MultiHeadAttentionBlocksGradcheck) {
  // Queries {constant, trainable}; keys {trainable dense, a trainable
  // RowsOf table whose row 4 no slot names, constant gathered rows}. Key 1
  // of query 1 is masked and query 2 masks every key.
  Rng rng(46);
  const int64_t b = 3, k = 4, m = 6, n = b * k;
  const int64_t qc = 2, qx = 3, kd = 3, kt = 4, kc = 2, table_rows = 5;
  MultiHeadAttention attn(qc + qx, kd + kt + kc, m, 2, rng);
  Var c = Constant(Tensor::Randn({b, qc}, rng));
  Var x = Parameter(Tensor::Randn({b, qx}, rng));
  Var dense = Parameter(Tensor::Randn({n, kd}, rng));
  Var table = Parameter(Tensor::Randn({table_rows, kt}, rng));
  std::vector<int32_t> slot(static_cast<size_t>(n));
  for (int32_t& s : slot) s = NarrowId(rng.UniformInt(table_rows - 1), "slot");
  std::vector<int32_t> idx(static_cast<size_t>(n));
  for (int32_t& i : idx) i = NarrowId(rng.UniformInt(6), "row");
  const auto consts = Rows(Tensor::Randn({6, kc}, rng), idx);
  const int64_t uc = consts->table->value.rows();
  Tensor mask = Tensor::Ones({b, k});
  mask.at(1, 1) = 0.0f;
  for (int64_t j = 0; j < k; ++j) mask.at(2, j) = 0.0f;
  // Backward: out_proj_'s dW and dX; the node's two scatters over the two
  // gathered key terms; per key projection dW over every block and dX
  // over the dense block and the table; q_proj_'s dW over both blocks and
  // dX over x.
  const int64_t proj = 2 * m * (2 * n * kd + 2 * table_rows * kt + uc * kc);
  CheckBlockModule(
      attn, {x, dense, table}, c,
      [&] {
        return attn.Forward({c, x}, {dense, RowsOf(table, slot), consts},
                            mask, k);
      },
      4 * b * m * m + 2 * 2 * n * m + 2 * proj + 2 * b * m * (qc + 2 * qx));
  for (int64_t col = 0; col < kt; ++col) {
    EXPECT_TRUE(IsExactlyZero(table->grad.at(table_rows - 1, col))) << col;
  }
}

TEST(ModulesTest, TimeEncoderGradcheck) {
  TimeEncoder encoder(5);
  Rng rng(47);
  const std::vector<float> dt = {0.0f, 0.5f, 1.5f, 3.0f, 0.5f};
  const Tensor g = Tensor::Randn({5, 5}, rng);
  // Encode and the distinct-delta rows EncodeRows projects.
  Var w = Constant(Tensor::Randn({5, 3}, rng));
  const auto loss = [&] {
    return Add(Sum(Mul(encoder.Encode(dt), Constant(g))),
               Sum(Project({encoder.EncodeRows(dt)}, w)));
  };
  for (const Var& p : encoder.Parameters()) CheckGradient(p, loss);
}

TEST(ModulesTest, AttentionHeadConstraintEnforced) {
  Rng rng(10);
  EXPECT_DEATH(MultiHeadAttention(4, 4, 9, 2, rng), "num_heads");
}

TEST(ModulesTest, ParameterBytes) {
  Rng rng(11);
  Linear layer(3, 2, rng);
  EXPECT_EQ(layer.ParameterBytes(), (3 * 2 + 2) * 4);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Var x = Parameter(Tensor::FromVector({2}, {5.0f, -3.0f}));
  Adam opt({x}, 0.1f);
  for (int step = 0; step < 500; ++step) {
    Var loss = Sum(Mul(x, x));
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(x->value.at(0), 0.0f, 0.05f);
  EXPECT_NEAR(x->value.at(1), 0.0f, 0.05f);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Var x = Parameter(Tensor::FromVector({2}, {3.0f, 4.0f}));
  Var loss = Sum(Mul(x, x));  // grad = (6, 8), norm 10
  Backward(loss);
  ClipGradNorm({x}, 5.0f);
  EXPECT_NEAR(x->grad.at(0), 3.0f, 1e-4f);
  EXPECT_NEAR(x->grad.at(1), 4.0f, 1e-4f);
}

TEST(OptimizerTest, ClipGradNormNoOpBelowThreshold) {
  Var x = Parameter(Tensor::FromVector({2}, {0.3f, 0.4f}));
  Var loss = Sum(Mul(x, x));  // grad norm 1
  Backward(loss);
  ClipGradNorm({x}, 5.0f);
  EXPECT_NEAR(x->grad.at(0), 0.6f, 1e-4f);
}

TEST(OptimizerTest, ParameterOutsideTheLossIsLeftExactlyAlone) {
  // A parameter no loss reaches (like NAT's embedding head under link
  // prediction) holds a zero gradient: Adam keeps its value bits and its
  // zero moments, and GradsFinite and ClipGradNorm act as if it were not
  // listed.
  const Tensor init = Tensor::FromVector({3}, {0.5f, -1.5f, 2.0f});
  const Tensor idle_init = Tensor::FromVector({2}, {-0.0f, 3.0f});
  Var alone = Parameter(init);
  Var with = Parameter(init);
  Var idle = Parameter(idle_init);
  Adam opt_alone({alone}, 0.1f);
  Adam opt_with({with, idle}, 0.1f);
  const auto step = [](const Var& p, Adam& opt,
                       const std::vector<Var>& params) {
    opt.ZeroGrad();
    Backward(Sum(Mul(p, p)));
    const bool finite = GradsFinite(params);
    ClipGradNorm(params, 0.5f);  // the gradient norm is above 0.5
    opt.Step();
    return finite;
  };
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  };
  for (int s = 0; s < 4; ++s) {
    const bool finite_alone = step(alone, opt_alone, {alone});
    EXPECT_EQ(step(with, opt_with, {with, idle}), finite_alone) << s;
    EXPECT_TRUE(same_bits(with->grad, alone->grad)) << s;
    EXPECT_TRUE(same_bits(with->value, alone->value)) << s;
    EXPECT_TRUE(same_bits(idle->value, idle_init)) << s;
  }
  // The idle parameter's two moments close the state blob: 2 x 2 floats.
  const std::string state = opt_with.SnapshotState();
  const size_t moment_bytes = 2 * 2 * sizeof(float);
  ASSERT_GT(state.size(), moment_bytes);
  EXPECT_EQ(state.substr(state.size() - moment_bytes),
            std::string(moment_bytes, '\0'));
}

}  // namespace
}  // namespace benchtemp::tensor
