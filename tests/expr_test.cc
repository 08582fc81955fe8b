// Tests for the lazy expression-fusion layer (src/tensor/expr.h): shape
// checking at composition time, broadcast rules (leaves only), gradient
// correctness against numeric differentiation, and the core contract —
// fused chains are BIT-identical to the eager per-op tape for both values
// and gradients.

#include "tensor/expr.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/debug_check.h"
#include "tensor/kernels/arena.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  void TearDown() override {
    expr::SetFusionEnabledForTest(true);
    kernels::SetArenaEnabledForTest(true);
  }
};

/// Bit pattern of a tensor (exact comparison, NaN-safe).
std::vector<uint32_t> BitsOf(const Tensor& t) {
  std::vector<uint32_t> bits(static_cast<size_t>(t.size()));
  std::memcpy(bits.data(), t.data(), static_cast<size_t>(t.size()) * 4);
  return bits;
}

/// Numeric gradient check for a scalar loss rebuilt by `loss_fn`.
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

TEST_F(ExprTest, LeafMaterializesToItself) {
  Var a = Parameter(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Var m = expr::Ex(a).Materialize();
  EXPECT_EQ(m.get(), a.get());
}

TEST_F(ExprTest, SingleOpMatchesEager) {
  Rng rng(1);
  Var a = Parameter(Tensor::Randn({3, 4}, rng));
  Var fused = expr::Sigmoid(expr::Ex(a));
  Var eager = Sigmoid(a);
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  EXPECT_EQ(std::string(fused->op), "fused[sigmoid]");
}

TEST_F(ExprTest, ChainForwardMatchesEagerBitwise) {
  Rng rng(2);
  Var x = Parameter(Tensor::Randn({7, 5}, rng));
  Var y = Parameter(Tensor::Randn({7, 5}, rng));
  Var fused = expr::Tanh(expr::Mul(expr::Add(expr::Ex(x), expr::Ex(y)),
                                   expr::ScalarMul(expr::Ex(x), 0.5f)));
  Var eager = Tanh(Mul(Add(x, y), ScalarMul(x, 0.5f)));
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  EXPECT_EQ(std::string(fused->op), "fused[add|smul|mul|tanh]");
}

TEST_F(ExprTest, ChainBackwardMatchesEagerBitwise) {
  Rng rng(3);
  Var x1 = Parameter(Tensor::Randn({6, 4}, rng));
  Var y1 = Parameter(Tensor::Randn({6, 4}, rng));
  Var x2 = Parameter(x1->value);
  Var y2 = Parameter(y1->value);
  Backward(Sum(expr::Tanh(
      expr::Mul(expr::Add(expr::Ex(x1), expr::Ex(y1)),
                expr::ScalarAdd(expr::ScalarMul(expr::Ex(x1), -1.0f), 1.0f)))));
  Backward(Sum(Tanh(Mul(Add(x2, y2), ScalarAdd(ScalarMul(x2, -1.0f), 1.0f)))));
  EXPECT_EQ(BitsOf(x1->grad), BitsOf(x2->grad));
  EXPECT_EQ(BitsOf(y1->grad), BitsOf(y2->grad));
}

TEST_F(ExprTest, RowBroadcastMatchesEagerBitwise) {
  Rng rng(4);
  Var x1 = Parameter(Tensor::Randn({9, 3}, rng));
  Var b1 = Parameter(Tensor::Randn({1, 3}, rng));
  Var x2 = Parameter(x1->value);
  Var b2 = Parameter(b1->value);
  Var fused = expr::Sigmoid(expr::Add(expr::Ex(x1), expr::Ex(b1)));
  Var eager = Sigmoid(Add(x2, b2));
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  Backward(Sum(fused));
  Backward(Sum(eager));
  EXPECT_EQ(BitsOf(x1->grad), BitsOf(x2->grad));
  EXPECT_EQ(BitsOf(b1->grad), BitsOf(b2->grad));
}

TEST_F(ExprTest, ColBroadcastMatchesEagerBitwise) {
  Rng rng(5);
  Var x1 = Parameter(Tensor::Randn({8, 6}, rng));
  Var m1 = Parameter(Tensor::Randn({8, 1}, rng));
  Var x2 = Parameter(x1->value);
  Var m2 = Parameter(m1->value);
  Var fused = expr::Tanh(expr::Mul(expr::Ex(x1), expr::Ex(m1)));
  Var eager = Tanh(Mul(x2, m2));
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  Backward(Sum(fused));
  Backward(Sum(eager));
  EXPECT_EQ(BitsOf(x1->grad), BitsOf(x2->grad));
  EXPECT_EQ(BitsOf(m1->grad), BitsOf(m2->grad));
}

TEST_F(ExprTest, SharedLeafAndColBroadcastSelectChain) {
  // The walk/JODIE select idiom: out = next*m + hidden*(1-m), m a [n, 1]
  // column mask consumed by two instructions of the same chain.
  Rng rng(6);
  Var next1 = Parameter(Tensor::Randn({5, 4}, rng));
  Var hid1 = Parameter(Tensor::Randn({5, 4}, rng));
  Var m1 = Parameter(Tensor::Randn({5, 1}, rng));
  Var inv1 = Parameter(Tensor::Randn({5, 1}, rng));
  Var next2 = Parameter(next1->value);
  Var hid2 = Parameter(hid1->value);
  Var m2 = Parameter(m1->value);
  Var inv2 = Parameter(inv1->value);
  Var fused = expr::Add(expr::Mul(expr::Ex(next1), expr::Ex(m1)),
                        expr::Mul(expr::Ex(hid1), expr::Ex(inv1)));
  Var eager = Add(Mul(next2, m2), Mul(hid2, inv2));
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  Backward(Sum(fused));
  Backward(Sum(eager));
  EXPECT_EQ(BitsOf(next1->grad), BitsOf(next2->grad));
  EXPECT_EQ(BitsOf(hid1->grad), BitsOf(hid2->grad));
  EXPECT_EQ(BitsOf(m1->grad), BitsOf(m2->grad));
  EXPECT_EQ(BitsOf(inv1->grad), BitsOf(inv2->grad));
}

TEST_F(ExprTest, DiamondReuseMatchesEagerBitwise) {
  // The same leaf feeds two operand positions (z and 1-z of the GRU gate).
  Rng rng(7);
  Var z1 = Parameter(Tensor::Randn({6, 3}, rng));
  Var n1 = Parameter(Tensor::Randn({6, 3}, rng));
  Var h1 = Parameter(Tensor::Randn({6, 3}, rng));
  Var z2 = Parameter(z1->value);
  Var n2 = Parameter(n1->value);
  Var h2 = Parameter(h1->value);
  Var fused = expr::Add(
      expr::Mul(expr::ScalarAdd(expr::ScalarMul(expr::Ex(z1), -1.0f), 1.0f),
                expr::Ex(n1)),
      expr::Mul(expr::Ex(z1), expr::Ex(h1)));
  Var eager =
      Add(Mul(ScalarAdd(ScalarMul(z2, -1.0f), 1.0f), n2), Mul(z2, h2));
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  Backward(Sum(fused));
  Backward(Sum(eager));
  EXPECT_EQ(BitsOf(z1->grad), BitsOf(z2->grad));
  EXPECT_EQ(BitsOf(n1->grad), BitsOf(n2->grad));
  EXPECT_EQ(BitsOf(h1->grad), BitsOf(h2->grad));
}

TEST_F(ExprTest, AllUnaryOpsMatchEagerBitwise) {
  Rng rng(8);
  Var a1 = Parameter(Tensor::Randn({4, 5}, rng, 0.8f));
  Var a2 = Parameter(a1->value);
  struct Case {
    const char* name;
    std::function<expr::Ex(const expr::Ex&)> fused;
    std::function<Var(const Var&)> eager;
  };
  const std::vector<Case> cases = {
      {"sigmoid", [](const expr::Ex& e) { return expr::Sigmoid(e); },
       [](const Var& v) { return Sigmoid(v); }},
      {"tanh", [](const expr::Ex& e) { return expr::Tanh(e); },
       [](const Var& v) { return Tanh(v); }},
      {"relu", [](const expr::Ex& e) { return expr::Relu(e); },
       [](const Var& v) { return Relu(v); }},
      {"exp", [](const expr::Ex& e) { return expr::Exp(e); },
       [](const Var& v) { return Exp(v); }},
      {"cos", [](const expr::Ex& e) { return expr::Cos(e); },
       [](const Var& v) { return Cos(v); }},
      {"sin", [](const expr::Ex& e) { return expr::Sin(e); },
       [](const Var& v) { return Sin(v); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ZeroGrad({a1, a2});
    // A two-op chain so the unary runs through the fused evaluator (a bare
    // unary over a leaf is still fused, but stack it on an add to exercise
    // interior adjoints too).
    Var fused = c.fused(expr::Add(expr::Ex(a1), expr::Ex(a1)));
    Var eager = c.eager(Add(a2, a2));
    EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
    Backward(Sum(fused));
    Backward(Sum(eager));
    EXPECT_EQ(BitsOf(a1->grad), BitsOf(a2->grad));
  }
}

TEST_F(ExprTest, SubMatchesEagerBitwise) {
  Rng rng(9);
  Var a1 = Parameter(Tensor::Randn({5, 5}, rng));
  Var b1 = Parameter(Tensor::Randn({5, 5}, rng));
  Var a2 = Parameter(a1->value);
  Var b2 = Parameter(b1->value);
  Var fused = expr::Exp(expr::Sub(expr::Ex(a1), expr::Ex(b1)));
  Var eager = Exp(Sub(a2, b2));
  EXPECT_EQ(BitsOf(fused->value), BitsOf(eager->value));
  Backward(Sum(fused));
  Backward(Sum(eager));
  EXPECT_EQ(BitsOf(a1->grad), BitsOf(a2->grad));
  EXPECT_EQ(BitsOf(b1->grad), BitsOf(b2->grad));
}

TEST_F(ExprTest, EscapeHatchReplaysEagerTape) {
  expr::SetFusionEnabledForTest(false);
  Rng rng(11);
  Var x = Parameter(Tensor::Randn({3, 4}, rng));
  Var y = Parameter(Tensor::Randn({3, 4}, rng));
  Var out = expr::Sigmoid(expr::Add(expr::Ex(x), expr::Ex(y)));
  // The replay records per-op nodes: the root is a plain eager Sigmoid.
  EXPECT_EQ(std::string(out->op), "Sigmoid");
  ASSERT_EQ(out->parents.size(), 1u);
  EXPECT_EQ(std::string(out->parents[0]->op), "Add");
  // Shared subexpressions replay once (memoized), like the lazy DAG.
  expr::Ex shared = expr::Add(expr::Ex(x), expr::Ex(y));
  Var reused = expr::Mul(shared, shared);
  ASSERT_EQ(reused->parents.size(), 2u);
  EXPECT_EQ(reused->parents[0].get(), reused->parents[1].get());
}

TEST_F(ExprTest, GradientChecksAgainstNumeric) {
  Rng rng(12);
  Var x = Parameter(Tensor::Randn({4, 3}, rng, 0.7f));
  Var b = Parameter(Tensor::Randn({1, 3}, rng, 0.7f));
  CheckGradient(x, [&] {
    return Sum(expr::Tanh(expr::Add(expr::Ex(x), expr::Ex(b))));
  });
  CheckGradient(b, [&] {
    return Sum(expr::Tanh(expr::Add(expr::Ex(x), expr::Ex(b))));
  });
  Var m = Parameter(Tensor::Randn({4, 1}, rng, 0.7f));
  CheckGradient(m, [&] {
    return Sum(expr::Sigmoid(expr::Mul(expr::Ex(x), expr::Ex(m))));
  });
}

TEST_F(ExprTest, ConstantsGetNoGradient) {
  Var a = Constant(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Var b = Parameter(Tensor::FromVector({2, 2}, {5, 6, 7, 8}));
  Var out = expr::Mul(expr::Add(expr::Ex(a), expr::Ex(b)), expr::Ex(a));
  Backward(Sum(out));
  EXPECT_EQ(a->grad.size(), 0);
  EXPECT_GT(b->grad.size(), 0);
  // All-constant chains record a gradient-free node.
  Var frozen = expr::Sigmoid(expr::Ex(a));
  EXPECT_FALSE(frozen->requires_grad);
}

TEST_F(ExprTest, FusedChainAllocatesOneArenaTensorPerPass) {
  kernels::SetArenaEnabledForTest(true);
  Rng rng(13);
  Tensor xv = Tensor::Randn({16, 8}, rng);
  Tensor yv = Tensor::Randn({16, 8}, rng);
  int64_t eager_floats = 0;
  int64_t fused_floats = 0;
  {
    kernels::TapeScope scope;
    Var x = Parameter(xv);
    Var y = Parameter(yv);
    Backward(Sum(Tanh(Mul(Add(x, y), ScalarMul(x, 0.5f)))));
    eager_floats = kernels::Arena::ThreadLocal().LiveFloats();
  }
  {
    kernels::TapeScope scope;
    Var x = Parameter(xv);
    Var y = Parameter(yv);
    Backward(Sum(expr::Tanh(expr::Mul(expr::Add(expr::Ex(x), expr::Ex(y)),
                                      expr::ScalarMul(expr::Ex(x), 0.5f)))));
    fused_floats = kernels::Arena::ThreadLocal().LiveFloats();
  }
  // Eager: 4 chain values + 4 interior grads (+ Sum). Fused: 1 value + 1
  // grad (+ Sum). The exact counts include alignment padding, so assert
  // the ratio rather than absolutes.
  EXPECT_LT(fused_floats * 2, eager_floats);
}

using ExprDeathTest = ExprTest;

TEST_F(ExprDeathTest, ShapeMismatchDiesAtCompositionTime) {
  Var a = Parameter(Tensor({2, 3}));
  Var b = Parameter(Tensor({3, 3}));
  EXPECT_DEATH(expr::Add(expr::Ex(a), expr::Ex(b)),
               "expr::Add: incompatible shapes");
  EXPECT_DEATH(expr::Sub(expr::Ex(a), expr::Ex(b)), "expr::Sub");
  EXPECT_DEATH(expr::Mul(expr::Ex(a), expr::Ex(b)),
               "expr::Mul: incompatible shapes");
}

TEST_F(ExprDeathTest, BroadcastingAnExpressionDies) {
  Var x = Parameter(Tensor({4, 3}));
  Var bias = Parameter(Tensor({1, 3}));
  // The broadcast operand is itself a lazy expression: the simple-tensor
  // idiom requires materializing it first.
  EXPECT_DEATH(
      expr::Add(expr::Ex(x), expr::ScalarMul(expr::Ex(bias), 2.0f)),
      "broadcast operand must be a materialized Var");
  Var mask = Parameter(Tensor({4, 1}));
  EXPECT_DEATH(
      expr::Mul(expr::Ex(x), expr::ScalarAdd(expr::Ex(mask), 1.0f)),
      "broadcast operand must be a materialized Var");
}

TEST_F(ExprDeathTest, SubDoesNotBroadcast) {
  Var x = Parameter(Tensor({4, 3}));
  Var bias = Parameter(Tensor({1, 3}));
  EXPECT_DEATH(expr::Sub(expr::Ex(x), expr::Ex(bias)), "expr::Sub");
}

}  // namespace
}  // namespace benchtemp::tensor
