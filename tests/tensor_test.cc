#include "tensor/tensor.h"

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/distinct.h"
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

/// TGAT's plan key: a node and a query time, 16 bytes without padding.
struct QueryKey {
  int64_t node;
  double t;
};

/// The bit patterns of `values`, so float keys compare exactly.
template <typename T>
std::vector<KeyBits<T>> BitsOf(const std::vector<T>& values) {
  std::vector<KeyBits<T>> bits;
  for (const T& v : values) bits.push_back(std::bit_cast<KeyBits<T>>(v));
  return bits;
}

TEST(DedupTest, IdsInFirstOccurrenceOrder) {
  const Distinct<int32_t> d = Dedup(std::vector<int32_t>{5, 3, 5, 7, 3, 3});
  EXPECT_EQ(d.values, (std::vector<int32_t>{5, 3, 7}));
  EXPECT_EQ(d.slot, (std::vector<int32_t>{0, 1, 0, 2, 1, 1}));
}

TEST(DedupTest, NegativeIds) {
  const int32_t lowest = std::numeric_limits<int32_t>::min();
  const Distinct<int32_t> d =
      Dedup(std::vector<int32_t>{-1, 4, lowest, -1, 0, 4, lowest});
  EXPECT_EQ(d.values, (std::vector<int32_t>{-1, 4, lowest, 0}));
  EXPECT_EQ(d.slot, (std::vector<int32_t>{0, 1, 2, 0, 3, 1, 2}));
}

TEST(DedupTest, FloatsCompareByBits) {
  // 0.0f and -0.0f compare equal as floats but are two keys; so are two
  // NaNs with different payloads, while one NaN repeated is one key.
  const float nan_a = std::bit_cast<float>(0x7FC00001u);
  const float nan_b = std::bit_cast<float>(0x7FC00002u);
  const std::vector<float> keys = {1.5f,  0.0f,  -0.0f, 1.5f,
                                   nan_a, nan_b, nan_a, -0.0f};
  const Distinct<float> d = Dedup(keys);
  EXPECT_EQ(BitsOf(d.values),
            BitsOf(std::vector<float>{1.5f, 0.0f, -0.0f, nan_a, nan_b}));
  EXPECT_EQ(d.slot, (std::vector<int32_t>{0, 1, 2, 0, 3, 4, 3, 2}));
}

TEST(DedupTest, QueryKeysCompareBothWords) {
  // Keys that differ only in their second word (the time) are distinct,
  // down to the sign of a zero time.
  const std::vector<QueryKey> keys = {{1, 2.0}, {1, 3.0},  {1, 2.0},
                                      {1, 0.0}, {1, -0.0}, {2, 2.0},
                                      {1, 3.0}, {2, 2.0}};
  const Distinct<QueryKey> d = Dedup(keys);
  EXPECT_EQ(BitsOf(d.values),
            BitsOf(std::vector<QueryKey>{
                {1, 2.0}, {1, 3.0}, {1, 0.0}, {1, -0.0}, {2, 2.0}}));
  EXPECT_EQ(d.slot, (std::vector<int32_t>{0, 1, 0, 2, 3, 4, 1, 4}));
}

TEST(DedupTest, TenThousandDistinctKeysGrowTheTable) {
  // Every key appears twice, the second pass in reverse: the table
  // doubles ten times, from 64 entries to 65,536, and slots must stay put.
  constexpr int32_t kDistinct = 10000;
  std::vector<int32_t> ids;
  std::vector<QueryKey> queries;
  for (int32_t i = 0; i < kDistinct; ++i) {
    ids.push_back(i * 7919 - 5000000);
    queries.push_back({i % 97, 0.5 * i});
  }
  std::vector<int32_t> want_slot(kDistinct);
  for (int32_t i = 0; i < kDistinct; ++i) want_slot[i] = i;
  for (int32_t i = kDistinct - 1; i >= 0; --i) {
    ids.push_back(ids[static_cast<size_t>(i)]);
    queries.push_back(queries[static_cast<size_t>(i)]);
    want_slot.push_back(i);
  }
  const Distinct<int32_t> d = Dedup(ids);
  EXPECT_EQ(d.values,
            std::vector<int32_t>(ids.begin(), ids.begin() + kDistinct));
  EXPECT_EQ(d.slot, want_slot);
  const Distinct<QueryKey> q = Dedup(queries);
  EXPECT_EQ(BitsOf(q.values),
            BitsOf(std::vector<QueryKey>(queries.begin(),
                                         queries.begin() + kDistinct)));
  EXPECT_EQ(q.slot, want_slot);
}

TEST(DedupTest, EmptyInput) {
  const Distinct<float> d = Dedup(std::vector<float>{});
  EXPECT_TRUE(d.values.empty());
  EXPECT_TRUE(d.slot.empty());
}

TEST(RowsTest, MinusOneSlotsShareOneZeroRow) {
  Rng rng(12);
  const Tensor table = Tensor::Randn({4, 3}, rng);
  const auto rows = Rows(table, {-1, 2, -1, 2, 0, -1});
  EXPECT_EQ(rows->slot, (std::vector<int32_t>{0, 1, 0, 1, 2, 0}));
  const Tensor& unique = rows->table->value;
  ASSERT_EQ(unique.shape(), (std::vector<int64_t>{3, 3}));
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(std::bit_cast<uint32_t>(unique.at(0, c)), 0u);
    EXPECT_EQ(unique.at(1, c), table.at(2, c));
    EXPECT_EQ(unique.at(2, c), table.at(0, c));
  }
}

TEST(RowsTest, OtherNegativeIndicesAreFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(13);
  const Tensor table = Tensor::Randn({4, 3}, rng);
  EXPECT_DEATH((void)Rows(table, {0, -2}), "Rows: index range");
  EXPECT_DEATH((void)Rows(table, {4}), "Rows: index range");
}

}  // namespace
}  // namespace benchtemp::tensor
