#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "tensor/random.h"

namespace benchtemp::tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.size(), 12);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FactoryHelpers) {
  Tensor full = Tensor::Full({2, 2}, 3.5f);
  EXPECT_FLOAT_EQ(full.at(1, 1), 3.5f);
  Tensor ones = Tensor::Ones({5});
  EXPECT_FLOAT_EQ(ones.at(4), 1.0f);
  Tensor from = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(from.at(1, 2), 6.0f);
}

TEST(TensorTest, Rank1ViewedAsColumn) {
  Tensor t({7});
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 1);
}

TEST(TensorTest, CopiesAreDeep) {
  Tensor a = Tensor::Full({2}, 1.0f);
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, ScaleInPlace) {
  Tensor a = Tensor::Full({3}, 2.5f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(0), 5.0f);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).ShapeString(), "[2, 3]");
  EXPECT_EQ(Tensor().ShapeString(), "[]");
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(10);
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 10);
  }
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(8);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const int64_t x = rng.Zipf(100, 1.2);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 100);
    if (x < 10) ++low;
    if (x >= 90) ++high;
  }
  EXPECT_GT(low, 5 * high);  // heavy head
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(9);
  int64_t low = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Zipf(100, 0.0) < 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 5000.0, 0.5, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(10);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int64_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 8000.0, 0.75, 0.04);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float x = rng.Normal(2.0f, 3.0f);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

}  // namespace
}  // namespace benchtemp::tensor
