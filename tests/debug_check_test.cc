// Tests for the BENCHTEMP_CHECK tape validator (src/tensor/debug_check):
// the runtime counterpart of btlint. Fatal checks are exercised with
// EXPECT_DEATH; the NaN-poisoning contract is asserted directly.

#include "tensor/debug_check.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/tensor.h"

namespace {

using namespace benchtemp::tensor;

/// Turns the validator on for a test body and restores "off" after, so the
/// rest of the suite (and any test-order shuffle) is unaffected.
class DebugCheckTest : public ::testing::Test {
 protected:
  void SetUp() override { debug_check::SetEnabledForTest(true); }
  void TearDown() override { debug_check::SetEnabledForTest(false); }
};

Tensor RowOf(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Tensor::FromVector({1, n}, std::move(values));
}

TEST(DebugCheckConfigTest, TestHookTogglesEnabled) {
  debug_check::SetEnabledForTest(true);
  EXPECT_TRUE(debug_check::Enabled());
  debug_check::SetEnabledForTest(false);
  EXPECT_FALSE(debug_check::Enabled());
}

TEST_F(DebugCheckTest, CleanGraphRecordsAndBackpropagates) {
  Var a = Parameter(RowOf({1.0f, 2.0f}));
  Var b = Parameter(RowOf({3.0f, 4.0f}));
  Var loss = Sum(Mul(a, b));
  Backward(loss);
  // Leaves keep their gradients for the optimizer.
  EXPECT_FLOAT_EQ(a->grad.at(0), 3.0f);
  EXPECT_FLOAT_EQ(b->grad.at(1), 2.0f);
}

TEST_F(DebugCheckTest, InteriorGradsAreNaNPoisonedAfterBackward) {
  Var a = Parameter(RowOf({1.0f, 2.0f}));
  Var product = Mul(a, a);
  Var loss = Sum(product);
  Backward(loss);
  // Interior nodes are consumed: tape released, grads poisoned so a stale
  // read is a loud NaN rather than a silently wrong number.
  EXPECT_TRUE(product->tape_released);
  ASSERT_GT(product->grad.size(), 0);
  for (int64_t i = 0; i < product->grad.size(); ++i) {
    EXPECT_TRUE(std::isnan(product->grad.at(i)));
  }
  // Leaves are not poisoned.
  EXPECT_FALSE(a->tape_released);
  for (int64_t i = 0; i < a->grad.size(); ++i) {
    EXPECT_FALSE(std::isnan(a->grad.at(i)));
  }
}

TEST_F(DebugCheckTest, ValidatorOffLeavesTapeAlone) {
  debug_check::SetEnabledForTest(false);
  Var a = Parameter(RowOf({1.0f, 2.0f}));
  Var product = Mul(a, a);
  Backward(Sum(product));
  EXPECT_FALSE(product->tape_released);
  for (int64_t i = 0; i < product->grad.size(); ++i) {
    EXPECT_FALSE(std::isnan(product->grad.at(i)));
  }
}

using DebugCheckDeathTest = DebugCheckTest;

TEST_F(DebugCheckDeathTest, UseAfterBackwardDies) {
  Var a = Parameter(RowOf({1.0f, 2.0f}));
  Var h = Mul(a, a);
  Backward(Sum(h));
  // h's tape is consumed; recording a new op on top of it is the bug the
  // validator exists to catch. The message names the offending op.
  EXPECT_DEATH(ScalarMul(h, 2.0f), "use-after-backward");
}

TEST_F(DebugCheckDeathTest, DoubleBackwardDies) {
  Var a = Parameter(RowOf({1.0f, 2.0f}));
  Var loss = Sum(Mul(a, a));
  Backward(loss);
  EXPECT_DEATH(Backward(loss), "BENCHTEMP_CHECK");
}

TEST_F(DebugCheckDeathTest, GradShapeDisagreementAtBackwardTimeDies) {
  // Hand-build a corrupt node: its gradient buffer disagrees with its value
  // shape. Real ops seed gradients from the value shape, so this guards
  // against future ops (or serialization bugs) that might not.
  VarNode node;
  node.op = "CorruptGradOp";
  node.value = RowOf({1.0f, 2.0f});
  node.grad = Tensor({1, 3});
  EXPECT_DEATH(debug_check::OnBackwardNode(node), "gradient shape disagrees");
}

TEST_F(DebugCheckDeathTest, NullParentAtRecordTimeDies) {
  VarNode node;
  node.op = "NullParentOp";
  node.value = RowOf({1.0f});
  node.parents.push_back(nullptr);
  EXPECT_DEATH(debug_check::OnRecord(node), "null parent");
}

}  // namespace
