#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/modules.h"
#include "tensor/numeric.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor {
namespace {

/// Numerically checks d(loss)/d(param) for every entry of `param`, where
/// `loss_fn` rebuilds the scalar loss from scratch (so perturbed forward
/// passes are consistent).
void CheckGradient(const Var& param, const std::function<Var()>& loss_fn,
                   float tolerance = 2e-2f) {
  Var loss = loss_fn();
  ZeroGrad({param});
  Backward(loss);
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
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "entry " << i;
  }
}

/// `x`'s rows as summed rows: one dense term through an identity weight,
/// so Attention reads exactly x's rows through ProjectRows' backward.
SummedRows IdentityRows(const Var& x) {
  const int64_t w = x->value.cols();
  Tensor identity({w, w});
  for (int64_t i = 0; i < w; ++i) identity.at(i, i) = 1.0f;
  return ProjectRows({x}, Constant(std::move(identity)));
}

/// `x`'s rows as summed rows of one dense term and no bias: Attention
/// reads x itself, with no projection, and its gradient reaches x.
SummedRows PlainRows(const Var& x) {
  SummedRows rows;
  rows.tables = x;
  rows.terms.push_back({0, nullptr});
  rows.rows = x->value.rows();
  return rows;
}

/// The width of AttentionWeights' one head: 1/sqrt(16) = 0.25 is exact.
constexpr int64_t kProbeWidth = 16;

/// One Attention head whose scaled scores are exactly `scores` (B·K rows
/// of one column, query b's K keys in a row; K <= kProbeWidth) and whose
/// values are one-hot rows, so column k of the [B, kProbeWidth] output is
/// key k's softmax weight: q = 4·e_0, key r = scores[r]·e_0, value k = e_k.
Var AttentionWeights(const Var& scores, const Tensor& mask, int64_t k) {
  const int64_t n = scores->value.rows();
  Tensor q({n / k, kProbeWidth}), first({1, kProbeWidth});
  Tensor values({n, kProbeWidth});
  for (int64_t i = 0; i < n / k; ++i) q.at(i, 0) = 4.0f;
  first.at(0, 0) = 1.0f;
  for (int64_t r = 0; r < n; ++r) values.at(r, r % k) = 1.0f;
  return Attention(Constant(std::move(q)),
                   ProjectRows({scores}, Constant(std::move(first))),
                   PlainRows(Constant(std::move(values))), mask, k, 1);
}

TEST(AutogradTest, AddBackward) {
  Rng rng(1);
  Var a = Parameter(Tensor::Randn({3, 4}, rng));
  Var b = Parameter(Tensor::Randn({3, 4}, rng));
  auto loss = [&] { return Sum(Mul(Add(a, b), Add(a, b))); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, ProjectOneBlockBackward) {
  Rng rng(4);
  Var a = Parameter(Tensor::Randn({3, 5}, rng));
  Var b = Parameter(Tensor::Randn({5, 2}, rng));
  auto loss = [&] { return Sum(Project({a}, b)); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, ProjectOneBlockValue) {
  Var a = Constant(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Var b = Constant(Tensor::FromVector({2, 2}, {5, 6, 7, 8}));
  Var c = Project({a}, b);
  EXPECT_FLOAT_EQ(c->value.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c->value.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c->value.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c->value.at(1, 1), 50.0f);
}

TEST(AutogradTest, ProjectTrainableBlocksBackward) {
  Rng rng(5);
  Var a = Parameter(Tensor::Randn({3, 2}, rng));
  Var b = Parameter(Tensor::Randn({3, 4}, rng));
  Var w = Parameter(Tensor::Randn({2 + 4 + 2, 3}, rng));
  // a is two blocks, so its two weight slices' gradients meet in a.
  auto loss = [&] { return Sum(Tanh(Project({a, b, a}, w))); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
  CheckGradient(w, loss);
}

TEST(AutogradTest, ConcatRowsBackward) {
  Rng rng(6);
  Var a = Parameter(Tensor::Randn({2, 3}, rng));
  Var b = Parameter(Tensor::Randn({4, 3}, rng));
  auto loss = [&] { return Sum(Tanh(ConcatRows({a, b}))); };
  CheckGradient(a, loss);
  CheckGradient(b, loss);
}

TEST(AutogradTest, GatherRowsBackwardAccumulatesDuplicates) {
  Rng rng(8);
  Var table = Parameter(Tensor::Randn({4, 2}, rng));
  auto loss = [&] { return Sum(GatherRows(table, {0, 2, 0, 0})); };
  Var l = loss();
  ZeroGrad({table});
  Backward(l);
  EXPECT_FLOAT_EQ(table->grad.at(0, 0), 3.0f);  // row 0 gathered 3 times
  EXPECT_FLOAT_EQ(table->grad.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(table->grad.at(1, 0), 0.0f);
  CheckGradient(table, loss);
}

TEST(AutogradTest, UnaryBackward) {
  Rng rng(9);
  Var a = Parameter(Tensor::Randn({4, 3}, rng, 0.8f));
  CheckGradient(a, [&] { return Sum(Sigmoid(a)); });
  CheckGradient(a, [&] { return Sum(Tanh(a)); });
  CheckGradient(a, [&] { return Sum(Cos(a)); });
}

TEST(AutogradTest, ReluBackwardAwayFromKink) {
  // Entries are pushed away from zero so the numeric check is valid.
  Var a = Parameter(Tensor::FromVector({2, 2}, {1.0f, -1.5f, 2.0f, -0.5f}));
  CheckGradient(a, [&] { return Sum(Relu(a)); });
}

TEST(AutogradTest, AttentionWeightsSumToOne) {
  Rng rng(10);
  const int64_t k = 5;
  Var w = AttentionWeights(Constant(Tensor::Randn({6 * k, 1}, rng)),
                           Tensor::Ones({6, k}), k);
  for (int64_t r = 0; r < 6; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < k; ++c) total += w->value.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
    for (int64_t c = k; c < kProbeWidth; ++c) {
      EXPECT_TRUE(IsExactlyZero(w->value.at(r, c))) << r << ", " << c;
    }
  }
}

TEST(AutogradTest, AttentionSoftmaxBackward) {
  Rng rng(11);
  const int64_t k = 4;
  Var scores = Parameter(Tensor::Randn({3 * k, 1}, rng));
  Var weights = Constant(Tensor::Randn({3, kProbeWidth}, rng));
  const Tensor ones = Tensor::Ones({3, k});
  CheckGradient(scores, [&] {
    return Sum(Mul(AttentionWeights(scores, ones, k), weights));
  });
}

TEST(AutogradTest, AttentionZerosMaskedKeys) {
  Var scores = Parameter(Tensor::FromVector({6, 1}, {1, 2, 3, 4, 5, 6}));
  Tensor mask = Tensor::FromVector({2, 3}, {1, 0, 1, 0, 0, 0});
  Var w = AttentionWeights(scores, mask, 3);
  EXPECT_TRUE(IsExactlyZero(w->value.at(0, 1)));
  EXPECT_NEAR(w->value.at(0, 0) + w->value.at(0, 2), 1.0f, 1e-5f);
  // Fully masked row: all zeros, no NaNs.
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(IsExactlyZero(w->value.at(1, c))) << c;
  }
  // A masked key's score takes exactly zero gradient.
  Rng rng(13);
  Backward(Sum(Mul(w, Constant(Tensor::Randn({2, kProbeWidth}, rng)))));
  for (const int64_t r : {1, 3, 4, 5}) {
    EXPECT_TRUE(IsExactlyZero(scores->grad.at(r))) << r;
  }
  EXPECT_FALSE(IsExactlyZero(scores->grad.at(0)));

  // Over two heads with trainable q, keys and values: the masked keys'
  // rows and the all-masked query's row take exactly zero gradient.
  Var q = Parameter(Tensor::Randn({2, 4}, rng));
  Var keys = Parameter(Tensor::Randn({6, 4}, rng));
  Var values = Parameter(Tensor::Randn({6, 4}, rng));
  Var out = Attention(q, IdentityRows(keys), PlainRows(values), mask, 3, 2);
  Backward(Sum(Mul(out, Constant(Tensor::Randn({2, 4}, rng)))));
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(IsExactlyZero(out->value.at(1, c))) << c;
    EXPECT_TRUE(IsExactlyZero(q->grad.at(1, c))) << c;
    for (const int64_t r : {1, 3, 4, 5}) {
      EXPECT_TRUE(IsExactlyZero(keys->grad.at(r, c))) << r << ", " << c;
      EXPECT_TRUE(IsExactlyZero(values->grad.at(r, c))) << r << ", " << c;
    }
  }
}

TEST(AutogradTest, BceWithLogitsMatchesManual) {
  Var logits = Parameter(Tensor::FromVector({2}, {0.3f, -1.2f}));
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  Var loss = BceWithLogits(logits, targets);
  const float expected =
      0.5f * (std::log(1.0f + std::exp(0.3f)) - 0.3f +
              std::log(1.0f + std::exp(-1.2f)));
  EXPECT_NEAR(loss->value.at(0), expected, 1e-5f);
  CheckGradient(logits, [&] { return BceWithLogits(logits, targets); });
}

TEST(AutogradTest, BceWithLogitsStableAtExtremes) {
  Var logits = Constant(Tensor::FromVector({2}, {80.0f, -80.0f}));
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  Var loss = BceWithLogits(logits, targets);
  EXPECT_TRUE(std::isfinite(loss->value.at(0)));
  EXPECT_NEAR(loss->value.at(0), 0.0f, 1e-4f);
}

TEST(AutogradTest, SoftmaxCrossEntropyBackward) {
  Rng rng(12);
  Var logits = Parameter(Tensor::Randn({4, 3}, rng));
  std::vector<int64_t> labels = {0, 2, 1, 2};
  CheckGradient(logits, [&] { return SoftmaxCrossEntropy(logits, labels); });
}

TEST(AutogradTest, AttentionBackward) {
  Rng rng(14);
  const int64_t k = 3;
  Var q = Parameter(Tensor::Randn({2, 4}, rng));
  Var keys = Parameter(Tensor::Randn({2 * k, 4}, rng));
  Var values = Parameter(Tensor::Randn({2 * k, 4}, rng));
  const Tensor ones = Tensor::Ones({2, k});
  auto loss = [&] {
    return Sum(Tanh(
        Attention(q, IdentityRows(keys), PlainRows(values), ones, k, 2)));
  };
  CheckGradient(q, loss);
  CheckGradient(keys, loss);
  CheckGradient(values, loss);
}

TEST(AutogradTest, BatchWeightedSumBackward) {
  Rng rng(15);
  const int64_t k = 3;
  const Tensor w = Tensor::Randn({2, k}, rng);
  Var values = Parameter(Tensor::Randn({2 * k, 4}, rng));
  auto loss = [&] {
    return Sum(Sigmoid(BatchWeightedSum(w, values, k)));
  };
  CheckGradient(values, loss);

  const Tensor out = BatchWeightedSum(w, values, k)->value;
  ASSERT_EQ(out.shape(), (std::vector<int64_t>{2, 4}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t c = 0; c < 4; ++c) {
      float want = 0.0f;
      for (int64_t j = 0; j < k; ++j) {
        want += w.at(i, j) * values->value.at(i * k + j, c);
      }
      EXPECT_NEAR(out.at(i, c), want, 1e-5f) << i << ", " << c;
    }
  }
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // The same parameter feeds two paths; gradients must accumulate once per
  // path (topological, not naive recursive, backprop).
  Var a = Parameter(Tensor::FromVector({1}, {2.0f}));
  Var b = Mul(a, a);     // a^2
  Var c = Add(b, a);     // a^2 + a
  Var loss = Sum(Mul(c, c));  // (a^2 + a)^2, d/da = 2(a^2+a)(2a+1) = 60
  Backward(loss);
  EXPECT_NEAR(a->grad.at(0), 60.0f, 1e-3f);
}

TEST(AutogradTest, NoGradThroughConstants) {
  Var a = Constant(Tensor::FromVector({1}, {3.0f}));
  Var loss = Sum(Mul(a, a));
  EXPECT_FALSE(loss->requires_grad);
  Backward(loss);  // must be a no-op, not a crash
  EXPECT_EQ(a->grad.size(), 0);
}

TEST(AutogradTest, ConstantCopyStopsGradient) {
  Var a = Parameter(Tensor::FromVector({1}, {2.0f}));
  // Only the direct path contributes.
  Var loss = Sum(Mul(Constant(a->value), a));
  Backward(loss);
  EXPECT_NEAR(a->grad.at(0), 2.0f, 1e-5f);
}

TEST(AutogradTest, DeepChainBackwardDoesNotOverflowStack) {
  Var a = Parameter(Tensor::FromVector({1}, {0.5f}));
  Var x = a;
  for (int i = 0; i < 20000; ++i) x = ScalarMul(x, 1.0f);
  Backward(Sum(x));
  EXPECT_NEAR(a->grad.at(0), 1.0f, 1e-5f);
}

// ---------------------------------------------------------------------------
// Numeric golden for the loss prelude: the trainer averages the two BCE
// halves, and this pins the exact values the published tables depend on.
// ---------------------------------------------------------------------------

TEST(AutogradTest, BcePreludeGolden) {
  Var pos = Parameter(Tensor::FromVector({2}, {0.3f, 1.1f}));
  Var neg = Parameter(Tensor::FromVector({2}, {-0.7f, 0.2f}));
  Tensor ones = Tensor::FromVector({2}, {1.0f, 1.0f});
  Tensor zeros = Tensor::FromVector({2}, {0.0f, 0.0f});
  Var loss = ScalarMul(
      Add(BceWithLogits(pos, ones), BceWithLogits(neg, zeros)), 0.5f);
  const double pos_bce = 0.5 * ((std::log(1.0 + std::exp(0.3)) - 0.3) +
                                (std::log(1.0 + std::exp(1.1)) - 1.1));
  const double neg_bce = 0.5 * (std::log(1.0 + std::exp(-0.7)) +
                                std::log(1.0 + std::exp(0.2)));
  EXPECT_NEAR(loss->value.at(0),
              static_cast<float>(0.5 * (pos_bce + neg_bce)), 1e-6f);
  Backward(loss);
  // d loss / d pos_i = 0.5 * (sigmoid(pos_i) - 1) / n.
  EXPECT_NEAR(pos->grad.at(0),
              0.25f * (1.0f / (1.0f + std::exp(-0.3f)) - 1.0f), 1e-6f);
  EXPECT_NEAR(neg->grad.at(1), 0.25f * (1.0f / (1.0f + std::exp(-0.2f))),
              1e-6f);
}

// ---------------------------------------------------------------------------
// Lerp: bit for bit against the eager compositions it replaces (every
// parent starting from a non-zero prior gradient, so the accumulation order
// is checked too), and against finite differences.
// ---------------------------------------------------------------------------

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), static_cast<size_t>(x.size()) * 4) ==
             0;
}

/// A parameter whose gradient buffer already holds `prior`.
Var ParameterWithGrad(const Tensor& value, const Tensor& prior) {
  Var p = Parameter(value);
  p->grad = prior;
  return p;
}

struct OpRun {
  Tensor out;
  std::vector<Tensor> grads;
};

/// Forward + backward of Sum(tanh(out) * g) for out = op(params).
OpRun RunOp(const std::vector<Var>& params, const Tensor& g,
            const std::function<Var()>& op) {
  Var out = op();
  Backward(Sum(Mul(Tanh(out), Constant(g))));
  OpRun run{out->value, {}};
  for (const Var& p : params) run.grads.push_back(p->grad);
  return run;
}

void ExpectSameRun(const OpRun& got, const OpRun& want) {
  EXPECT_TRUE(SameBits(got.out, want.out)) << "forward";
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (size_t i = 0; i < got.grads.size(); ++i) {
    EXPECT_TRUE(SameBits(got.grads[i], want.grads[i])) << "grad " << i;
  }
}

/// Random weights in [0, 1], like the gates and masks Lerp serves.
Tensor UnitWeights(std::vector<int64_t> shape, Rng& rng) {
  return Tensor::Uniform(std::move(shape), rng, 0.0f, 1.0f);
}

TEST(AutogradTest, LerpFullWeightMatchesEagerBitwise) {
  // The GRU's state update: (1 - z) * n + z * h.
  Rng rng(62);
  const Tensor a = Tensor::Randn({33, 11}, rng);
  const Tensor b = Tensor::Randn({33, 11}, rng);
  const Tensor w = UnitWeights({33, 11}, rng);
  const Tensor g = Tensor::Randn({33, 11}, rng);
  const Tensor ga = Tensor::Randn({33, 11}, rng);
  const Tensor gb = Tensor::Randn({33, 11}, rng);
  const Tensor gw = Tensor::Randn({33, 11}, rng);
  const Tensor ones = Tensor::Ones({33, 11});
  std::vector<OpRun> runs;
  for (const bool one_node : {true, false}) {
    Var av = ParameterWithGrad(a, ga);
    Var bv = ParameterWithGrad(b, gb);
    Var wv = ParameterWithGrad(w, gw);
    runs.push_back(RunOp({av, bv, wv}, g, [&] {
      if (one_node) return Lerp(av, bv, wv);
      Var one_minus_w = Add(ScalarMul(wv, -1.0f), Constant(ones));
      return Add(Mul(one_minus_w, av), Mul(wv, bv));
    }));
    if (one_node) {
      EXPECT_EQ(Lerp(av, bv, wv)->parents, (std::vector<Var>{wv, av, bv}));
    }
  }
  ExpectSameRun(runs[0], runs[1]);
}

TEST(AutogradTest, LerpColumnWeightMatchesEagerBitwise) {
  // The walk and JODIE selects: an [n, 1] constant weight per row, both
  // as an exact 0/1 mask and with general weights.
  Rng rng(63);
  const Tensor a = Tensor::Randn({29, 7}, rng);
  const Tensor b = Tensor::Randn({29, 7}, rng);
  const Tensor g = Tensor::Randn({29, 7}, rng);
  const Tensor ga = Tensor::Randn({29, 7}, rng);
  const Tensor gb = Tensor::Randn({29, 7}, rng);
  Tensor mask({29, 1});
  for (int64_t r = 0; r < 29; ++r) mask.at(r) = rng.UniformInt(2) ? 1.0f : 0.0f;
  const Tensor ones = Tensor::Ones({29, 7});
  for (const Tensor& w : {mask, UnitWeights({29, 1}, rng)}) {
    // Mul multiplies same-size operands only, so the composition repeats
    // each row's weight across the row.
    Tensor wide({29, 7});
    for (int64_t i = 0; i < wide.size(); ++i) wide.at(i) = w.at(i / 7);
    std::vector<OpRun> runs;
    for (const bool one_node : {true, false}) {
      Var av = ParameterWithGrad(a, ga);
      Var bv = ParameterWithGrad(b, gb);
      runs.push_back(RunOp({av, bv}, g, [&] {
        if (one_node) return Lerp(av, bv, Constant(w));
        Var wv = Constant(wide);
        Var one_minus_w = Add(ScalarMul(wv, -1.0f), Constant(ones));
        return Add(Mul(av, one_minus_w), Mul(bv, wv));
      }));
    }
    ExpectSameRun(runs[0], runs[1]);
  }
}

TEST(AutogradTest, LerpGradcheck) {
  Rng rng(65);
  Var a = Parameter(Tensor::Randn({5, 3}, rng));
  Var b = Parameter(Tensor::Randn({5, 3}, rng));
  Var w = Parameter(UnitWeights({5, 3}, rng));
  Var col = Constant(UnitWeights({5, 1}, rng));
  const Tensor g = Tensor::Randn({5, 3}, rng);
  auto full = [&] { return Sum(Mul(Tanh(Lerp(a, b, w)), Constant(g))); };
  CheckGradient(a, full);
  CheckGradient(b, full);
  CheckGradient(w, full);
  auto column = [&] { return Sum(Mul(Tanh(Lerp(a, b, col)), Constant(g))); };
  CheckGradient(a, column);
  CheckGradient(b, column);
}

TEST(AutogradTest, LerpRejectsBadShapes) {
  Var a = Parameter(Tensor::Zeros({3, 2}));
  // A column weight is a constant: it takes no gradient.
  EXPECT_DEATH((void)Lerp(a, a, Parameter(Tensor::Zeros({3, 1}))),
               "Lerp: w must be");
}

TEST(AutogradTest, AttentionWeightsGolden) {
  // The softmax inside Attention runs Exp / Sum / normalize as one kernel
  // pass; pin its exact output for a known unmasked row so that path stays
  // put.
  Var w = AttentionWeights(Constant(Tensor::FromVector({3, 1}, {1, 2, 3})),
                           Tensor::Ones({1, 3}), 3);
  const double z = std::exp(1.0 - 3.0) + std::exp(2.0 - 3.0) + 1.0;
  EXPECT_NEAR(w->value.at(0, 0), static_cast<float>(std::exp(-2.0) / z),
              1e-6f);
  EXPECT_NEAR(w->value.at(0, 1), static_cast<float>(std::exp(-1.0) / z),
              1e-6f);
  EXPECT_NEAR(w->value.at(0, 2), static_cast<float>(1.0 / z), 1e-6f);
}

TEST(AutogradTest, AttentionMaskedWeightsGolden) {
  Var w = AttentionWeights(Constant(Tensor::FromVector({3, 1}, {2, 5, 4})),
                           Tensor::FromVector({1, 3}, {1.0f, 0.0f, 1.0f}), 3);
  const double z = std::exp(2.0 - 4.0) + 1.0;
  EXPECT_NEAR(w->value.at(0, 0), static_cast<float>(std::exp(-2.0) / z),
              1e-6f);
  EXPECT_TRUE(IsExactlyZero(w->value.at(0, 1)));
  EXPECT_NEAR(w->value.at(0, 2), static_cast<float>(1.0 / z), 1e-6f);
}

// ---------------------------------------------------------------------------
// Project: [B_1 | ... | B_n] · W over dense and gathered column blocks,
// checked against finite differences (kernels_test.cc checks its order bit
// for bit against plain loops).
// ---------------------------------------------------------------------------

/// Inputs of one Project case: blocks {a, rows, c, rows} where `a` is a
/// trainable dense block, `c` a constant dense block and `rows` the
/// `table` rows at `idx` (used twice, sharing one index).
struct ProjectInputs {
  Tensor a, c, table, w, g;
  std::vector<int32_t> idx;
};

ProjectInputs MakeProjectInputs(std::vector<int32_t> idx, int64_t table_rows,
                                int64_t dense_w, int64_t table_w, int64_t m,
                                uint64_t seed) {
  Rng rng(seed);
  const int64_t n = static_cast<int64_t>(idx.size());
  ProjectInputs in;
  in.a = Tensor::Randn({n, dense_w}, rng);
  in.c = Tensor::Randn({n, 2}, rng);
  in.table = Tensor::Randn({table_rows, table_w}, rng);
  in.w = Tensor::Randn({dense_w + 2 + 2 * table_w, m}, rng, 0.3f);
  in.g = Tensor::Randn({n, m}, rng);
  in.idx = std::move(idx);
  return in;
}

struct ProjectRun {
  Tensor out, dw, da;
};

/// Forward + backward of Sum(tanh(out) * g) through Project.
ProjectRun RunProject(const ProjectInputs& in) {
  Var a = Parameter(in.a);
  Var c = Constant(in.c);
  Var w = Parameter(in.w);
  const auto rows = Rows(in.table, in.idx);
  Var out = Project({a, rows, c, rows}, w);
  Backward(Sum(Mul(Tanh(out), Constant(in.g))));
  EXPECT_EQ(c->grad.size(), 0);
  return {out->value, w->grad, a->grad};
}

TEST(AutogradTest, ProjectGradcheck) {
  const ProjectInputs in =
      MakeProjectInputs({4, 0, 4, 9, 0, 4}, 10, 3, 4, 3, /*seed=*/52);
  Var a = Parameter(in.a);
  Var c = Constant(in.c);
  Var w = Parameter(in.w);
  const auto rows = Rows(in.table, in.idx);
  auto loss = [&] {
    return Sum(Mul(Tanh(Project({a, rows, c, rows}, w)), Constant(in.g)));
  };
  CheckGradient(w, loss);
  CheckGradient(a, loss);
}

TEST(AutogradTest, ProjectGatheredTableNeverReceivesGradient) {
  const ProjectInputs in =
      MakeProjectInputs({1, 1, 0, 5}, 6, 2, 3, 4, /*seed=*/53);
  const Tensor table_before = in.table;
  Var a = Parameter(in.a);
  Var w = Parameter(in.w);
  Var c = Constant(in.c);
  const auto rows = Rows(in.table, in.idx);
  Var out = Project({a, rows, c, rows}, w);
  // The weight, then one parent per block: the gathered blocks' parent is
  // the constant of distinct rows `Rows` built, which requires no gradient.
  ASSERT_EQ(out->parents.size(), 5u);
  EXPECT_EQ(out->parents[0], w);
  EXPECT_EQ(out->parents[1], a);
  EXPECT_EQ(out->parents[2], rows->table);
  EXPECT_EQ(out->parents[3], c);
  EXPECT_EQ(out->parents[4], rows->table);
  EXPECT_FALSE(rows->table->requires_grad);
  Backward(Sum(out));
  EXPECT_EQ(w->grad.size(), w->value.size());
  EXPECT_EQ(a->grad.size(), a->value.size());
  EXPECT_EQ(c->grad.size(), 0);
  EXPECT_EQ(rows->table->grad.size(), 0);
  EXPECT_EQ(std::memcmp(in.table.data(), table_before.data(),
                        static_cast<size_t>(in.table.size()) * 4),
            0);
}

TEST(AutogradTest, ProjectBitIdenticalAcrossThreads) {
  Rng rng(54);
  std::vector<int32_t> idx(300);
  for (int32_t& i : idx) i = NarrowId(rng.UniformInt(64), "row");
  const ProjectInputs in = MakeProjectInputs(idx, 64, 24, 40, 24, 55);
  runtime::ThreadPool& pool = runtime::ThreadPool::Global();
  const int original_threads = pool.num_threads();
  std::vector<ProjectRun> runs;
  for (const int threads : {1, 8}) {
    pool.SetNumThreads(threads);
    runs.push_back(RunProject(in));
  }
  pool.SetNumThreads(original_threads);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(SameBits(runs[i].out, runs[0].out)) << "config " << i;
    EXPECT_TRUE(SameBits(runs[i].dw, runs[0].dw)) << "config " << i;
    EXPECT_TRUE(SameBits(runs[i].da, runs[0].da)) << "config " << i;
  }
}

TEST(AutogradTest, RowsCountsGatheredAndUniqueRows) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::MetricRegistry::OverrideEnabledForTest(1);
  registry.Reset();
  Rng rng(56);
  const Tensor table = Tensor::Randn({8, 3}, rng);
  const auto rows = Rows(table, {5, 0, 5, 7, 0, 5});
  EXPECT_EQ(rows->table->value.rows(), 3);
  EXPECT_EQ(rows->slot, (std::vector<int32_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(rows->table->value.at(2, 1), table.at(7, 1));
  EXPECT_EQ(registry.value(obs::Counter::kProjectRows), 6);
  EXPECT_EQ(registry.value(obs::Counter::kProjectUniqueRows), 3);
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
}

TEST(AutogradTest, RowsOfAbsentTableAreZeroWidth) {
  // A graph loaded without edge features has a rank-0 table; its rows
  // contribute nothing, so Project reduces to the dense blocks' product.
  Rng rng(57);
  Var a = Constant(Tensor::Randn({3, 2}, rng));
  Var w = Parameter(Tensor::Randn({2, 4}, rng));
  const auto rows = Rows(Tensor(), {9, 0, 9});
  EXPECT_EQ(rows->table->value.cols(), 0);
  const Tensor got = Project({a, rows}, w)->value;
  const Tensor want = Project({a}, w)->value;
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.size()) * 4),
            0);
}

/// Project over a dense block, constant `Rows` and a `RowsOf` block of a
/// trainable table, against finite differences; a table row no slot names
/// gets an exactly zero gradient.
TEST(AutogradTest, ProjectRowsOfGradcheck) {
  Rng rng(58);
  // Table row 3 is named by no slot; rows 0 and 2 repeat.
  const std::vector<int32_t> slot = {2, 0, 2, 4, 1, 0, 2};
  const int64_t n = static_cast<int64_t>(slot.size());
  Var a = Parameter(Tensor::Randn({n, 2}, rng));
  Var table = Parameter(Tensor::Randn({5, 3}, rng));
  const Tensor features = Tensor::Randn({6, 4}, rng);
  const std::vector<int32_t> feature_idx = {5, 5, 1, 0, 1, 5, 3};
  Var w = Parameter(Tensor::Randn({2 + 4 + 3, 3}, rng, 0.3f));
  const Tensor g = Tensor::Randn({n, 3}, rng);
  const auto consts = Rows(features, feature_idx);
  auto loss = [&] {
    return Sum(Mul(Tanh(Project({a, consts, RowsOf(table, slot)}, w)),
                   Constant(g)));
  };
  CheckGradient(w, loss);
  CheckGradient(a, loss);
  CheckGradient(table, loss);

  ZeroGrad({table});
  Backward(loss());
  ASSERT_EQ(table->grad.size(), table->value.size());
  for (int64_t j = 0; j < table->value.cols(); ++j) {
    EXPECT_TRUE(IsExactlyZero(table->grad.at(3, j))) << "column " << j;
  }
}

TEST(AutogradTest, ProjectBiasGradcheck) {
  Rng rng(63);
  const std::vector<int32_t> slot = {1, 0, 1, 2, 2};
  Var a = Parameter(Tensor::Randn({5, 2}, rng));
  Var table = Parameter(Tensor::Randn({3, 3}, rng));
  const auto consts = Rows(Tensor::Randn({4, 2}, rng), {3, 0, 3, 1, 0});
  Var w = Parameter(Tensor::Randn({2 + 3 + 2, 4}, rng, 0.3f));
  Var b = Parameter(Tensor::Randn({1, 4}, rng));
  const Tensor g = Tensor::Randn({5, 4}, rng);
  auto loss = [&] {
    return Sum(Mul(Tanh(Project({a, RowsOf(table, slot), consts}, w, b)),
                   Constant(g)));
  };
  CheckGradient(b, loss);
  CheckGradient(w, loss);
  CheckGradient(a, loss);
  CheckGradient(table, loss);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)Project({a}, Parameter(Tensor::Randn({2, 4}, rng)),
                             Parameter(Tensor::Randn({1, 3}, rng))),
               "Project: bias must be \\[1, m\\]");
}

/// Every entry of `grad` outside columns [start, start + len) is exactly 0.
void ExpectZeroOutsideWindow(const Tensor& grad, int64_t start, int64_t len,
                             const char* what) {
  ASSERT_EQ(grad.rank(), 2) << what;
  for (int64_t r = 0; r < grad.rows(); ++r) {
    for (int64_t c = 0; c < grad.cols(); ++c) {
      if (c >= start && c < start + len) continue;
      EXPECT_TRUE(IsExactlyZero(grad.at(r, c)))
          << what << " (" << r << ", " << c << ")";
    }
  }
}

TEST(AutogradTest, AttentionHeadWindowsGradcheck) {
  // Two heads of three columns: head h scores, weighs and writes only its
  // own columns.
  Rng rng(64);
  const int64_t b = 3, k = 2, heads = 2, d = 3, m = heads * d;
  Var q = Parameter(Tensor::Randn({b, m}, rng));
  Var keys = Parameter(Tensor::Randn({b * k, m}, rng));
  Var values = Parameter(Tensor::Randn({b * k, m}, rng));
  Tensor mask = Tensor::Ones({b, k});
  mask.at(2, 1) = 0.0f;
  auto attend = [&] {
    return Attention(q, IdentityRows(keys), PlainRows(values), mask, k, heads);
  };
  auto loss = [&] { return Sum(Tanh(attend())); };
  CheckGradient(q, loss);
  CheckGradient(keys, loss);
  CheckGradient(values, loss);

  const Tensor out = attend()->value;
  ASSERT_EQ(out.shape(), (std::vector<int64_t>{b, m}));
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t h = 0; h < heads; ++h) {
      std::vector<float> w(k);
      float total = 0.0f;
      for (int64_t j = 0; j < k; ++j) {
        float score = 0.0f;
        for (int64_t c = h * d; c < (h + 1) * d; ++c) {
          score += q->value.at(i, c) * keys->value.at(i * k + j, c);
        }
        w[j] = IsExactlyZero(mask.at(i, j)) ? 0.0f : std::exp(scale * score);
        total += w[j];
      }
      for (int64_t c = h * d; c < (h + 1) * d; ++c) {
        float want = 0.0f;
        for (int64_t j = 0; j < k; ++j) {
          want += w[j] / total * values->value.at(i * k + j, c);
        }
        EXPECT_NEAR(out.at(i, c), want, 1e-5f) << i << ", " << c;
      }
    }
  }

  // A loss over head 0's output columns reaches only head 0's columns.
  Tensor head0({b, m});
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t c = 0; c < d; ++c) head0.at(i, c) = 1.0f;
  }
  ZeroGrad({q, keys, values});
  Backward(Sum(Mul(Tanh(attend()), Constant(head0))));
  ExpectZeroOutsideWindow(q->grad, 0, d, "q");
  ExpectZeroOutsideWindow(keys->grad, 0, d, "keys");
  ExpectZeroOutsideWindow(values->grad, 0, d, "values");
}

TEST(AutogradTest, SummedRowsGradcheck) {
  // Keys with one dense block and two gathered ones (a trainable table
  // whose row 4 no slot names, and constant rows), read by both heads of
  // one Attention. An all-masked query row gets no gradient through
  // softmax.
  Rng rng(67);
  const int64_t b = 3, k = 4, m = 6;
  Var q = Parameter(Tensor::Randn({b, m}, rng));
  Var a = Parameter(Tensor::Randn({b * k, 3}, rng));
  Var table = Parameter(Tensor::Randn({5, 4}, rng));
  std::vector<int32_t> slot(static_cast<size_t>(b * k));
  for (int32_t& s : slot) s = NarrowId(rng.UniformInt(4), "slot");
  std::vector<int32_t> idx(static_cast<size_t>(b * k));
  for (int32_t& i : idx) i = NarrowId(rng.UniformInt(6), "row");
  const auto consts = Rows(Tensor::Randn({6, 2}, rng), idx);
  Var wk = Parameter(Tensor::Randn({3 + 4 + 2, m}, rng, 0.5f));
  Var bk = Parameter(Tensor::Randn({1, m}, rng));
  Var wv = Parameter(Tensor::Randn({3 + 4 + 2, m}, rng, 0.5f));
  Var bv = Parameter(Tensor::Randn({1, m}, rng));
  Tensor mask({b, k});
  mask.Fill(1.0f);
  for (int64_t j = 0; j < k; ++j) mask.at(0, j) = 0.0f;
  mask.at(1, 2) = 0.0f;
  auto loss = [&] {
    const std::vector<ColBlock> blocks = {RowsOf(table, slot), a, consts};
    const SummedRows keys = ProjectRows(blocks, wk, bk);
    const SummedRows values = ProjectRows(blocks, wv, bv);
    return Sum(Sigmoid(Attention(q, keys, values, mask, k, 2)));
  };
  for (const Var& p : {q, wk, bk, wv, bv, table, a}) CheckGradient(p, loss);
  for (int64_t c = 0; c < table->grad.cols(); ++c) {
    EXPECT_TRUE(IsExactlyZero(table->grad.at(4, c))) << c;
  }
}

TEST(AutogradTest, AttentionHeadCountNotDividingWidthIsFatal) {
  Rng rng(66);
  Var q = Constant(Tensor::Randn({2, 4}, rng));
  Var keys = Constant(Tensor::Randn({4, 4}, rng));
  const Tensor mask = Tensor::Ones({2, 2});
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const int64_t heads : {3, 0}) {
    EXPECT_DEATH((void)Attention(q, IdentityRows(keys), PlainRows(keys), mask,
                                 2, heads),
                 "Attention: num_heads must divide the query width");
  }
}

TEST(AutogradTest, EncodeRowsSharesEqualDeltas) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::MetricRegistry::OverrideEnabledForTest(1);
  registry.Reset();
  const TimeEncoder encoder(6);
  // 0.0 and -0.0 have different bits, so they are different keys.
  const std::vector<float> dts = {3.0f, 1.5f, 3.0f, 0.0f, 1.5f, -0.0f, 3.0f};
  const auto rows = encoder.EncodeRows(dts);
  EXPECT_EQ(rows->table->value.rows(), 4);
  EXPECT_EQ(rows->slot, (std::vector<int32_t>{0, 1, 0, 2, 1, 3, 0}));
  EXPECT_EQ(registry.value(obs::Counter::kProjectRows), 7);
  EXPECT_EQ(registry.value(obs::Counter::kProjectUniqueRows), 4);
  const Tensor want = encoder.Encode(dts)->value;
  const Tensor& table = rows->table->value;
  ASSERT_EQ(table.cols(), want.cols());
  for (int64_t r = 0; r < want.rows(); ++r) {
    const int64_t u = rows->slot[static_cast<size_t>(r)];
    EXPECT_EQ(std::memcmp(table.data() + u * table.cols(),
                          want.data() + r * want.cols(),
                          static_cast<size_t>(want.cols()) * 4),
              0)
        << "row " << r;
  }
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
}

TEST(AutogradTest, RowsOfCountsEveryTableRow) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::MetricRegistry::OverrideEnabledForTest(1);
  registry.Reset();
  Rng rng(60);
  Var table = Parameter(Tensor::Randn({4, 2}, rng));
  const auto rows = RowsOf(table, {3, 3, 0});
  EXPECT_EQ(rows->table, table);
  EXPECT_EQ(registry.value(obs::Counter::kProjectRows), 3);
  EXPECT_EQ(registry.value(obs::Counter::kProjectUniqueRows), 4);
  obs::MetricRegistry::OverrideEnabledForTest(-1);
  registry.Reset();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)RowsOf(table, {0, 4}), "RowsOf: slot range");
}

TEST(AutogradTest, RowsRejectsOutOfRangeIndex) {
  const Tensor table({4, 2});
  EXPECT_DEATH((void)Rows(table, {0, 4}), "Rows: index range");
}

}  // namespace
}  // namespace benchtemp::tensor
