#include "models/ncache.h"

#include <vector>

#include <gtest/gtest.h>

#include "models/model.h"

namespace benchtemp::models {
namespace {

TEST(NCacheTableTest, StartsEmpty) {
  NCacheTable table(10, 4);
  const auto features = table.JointFeatures(0, 1);
  ASSERT_EQ(features.size(),
            static_cast<size_t>(NCacheTable::kJointFeatureDim));
  for (float f : features) EXPECT_FLOAT_EQ(f, 0.0f);
}

TEST(NCacheTableTest, DirectEdgeSetsContainmentBits) {
  NCacheTable table(10, 4);
  tensor::Rng rng(1);
  table.Observe(2, 7, rng);
  const auto features = table.JointFeatures(2, 7);
  EXPECT_FLOAT_EQ(features[0], 1.0f);  // 7 in c1(2)
  EXPECT_FLOAT_EQ(features[1], 1.0f);  // 2 in c1(7)
  // Symmetric query flips the bits consistently.
  const auto reversed = table.JointFeatures(7, 2);
  EXPECT_FLOAT_EQ(reversed[0], 1.0f);
  EXPECT_FLOAT_EQ(reversed[1], 1.0f);
}

TEST(NCacheTableTest, CommonNeighborOverlap) {
  NCacheTable table(10, 4);
  tensor::Rng rng(2);
  table.Observe(0, 5, rng);
  table.Observe(1, 5, rng);  // 0 and 1 now share neighbor 5
  const auto features = table.JointFeatures(0, 1);
  EXPECT_FLOAT_EQ(features[2], 0.25f);  // one overlap / cache size 4
  const auto unrelated = table.JointFeatures(0, 3);
  EXPECT_FLOAT_EQ(unrelated[2], 0.0f);
}

TEST(NCacheTableTest, RingBufferEvictsOldest) {
  NCacheTable table(10, 2);  // tiny cache
  tensor::Rng rng(3);
  table.Observe(0, 5, rng);
  table.Observe(0, 6, rng);
  table.Observe(0, 7, rng);  // evicts 5 from c1(0)
  EXPECT_FLOAT_EQ(table.JointFeatures(0, 5)[0], 0.0f);
  EXPECT_FLOAT_EQ(table.JointFeatures(0, 6)[0], 1.0f);
  EXPECT_FLOAT_EQ(table.JointFeatures(0, 7)[0], 1.0f);
}

TEST(NCacheTableTest, TwoHopPropagation) {
  NCacheTable table(10, 4);
  tensor::Rng rng(4);
  // Alternate (0, 5) and (1, 5): c1(5) keeps holding 0, and each (1, 5)
  // event samples a member of c1(5) into c2(1) — over 8 rounds node 0
  // lands in c2(1) with overwhelming probability (candidates equal to the
  // node itself are skipped, so 0 is the only possible entry besides 5's
  // other partners).
  for (int i = 0; i < 8; ++i) {
    table.Observe(0, 5, rng);
    table.Observe(1, 5, rng);
  }
  // Channel 4 of (1, 5) = |c2(1) ∩ c1(5)|: c2(1) holds 0, c1(5) holds 0.
  const auto via5 = table.JointFeatures(1, 5);
  EXPECT_GT(via5[4], 0.0f);
}

TEST(NCacheTableTest, ResetClears) {
  NCacheTable table(10, 4);
  tensor::Rng rng(5);
  table.Observe(0, 5, rng);
  table.Reset();
  for (float f : table.JointFeatures(0, 5)) EXPECT_FLOAT_EQ(f, 0.0f);
}

TEST(NCacheTableTest, BatchApiMatchesPerEventAndPerPairCalls) {
  // ObserveBatch draws as the Observe loop does, and JointFeatureBlock's
  // row i is JointFeatures(srcs[i], dsts[i]).
  Batch batch;
  batch.srcs = {0, 1, 2, 0, 3, 1, 2, 0};
  batch.dsts = {5, 5, 6, 6, 5, 7, 5, 7};
  NCacheTable batched(10, 4), single(10, 4);
  tensor::Rng batched_rng(6), single_rng(6);
  batched.ObserveBatch(batch, batched_rng);
  for (size_t i = 0; i < batch.srcs.size(); ++i) {
    single.Observe(batch.srcs[i], batch.dsts[i], single_rng);
  }
  const std::vector<int32_t> us = {0, 1, 5, 2, 9, 0};
  const std::vector<int32_t> vs = {1, 5, 6, 0, 3, 7};
  const tensor::Tensor block = batched.JointFeatureBlock(us, vs);
  ASSERT_EQ(block.shape(), (std::vector<int64_t>{
                               6, NCacheTable::kJointFeatureDim}));
  for (size_t i = 0; i < us.size(); ++i) {
    const std::vector<float> want = single.JointFeatures(us[i], vs[i]);
    for (int64_t c = 0; c < NCacheTable::kJointFeatureDim; ++c) {
      EXPECT_FLOAT_EQ(block.at(static_cast<int64_t>(i), c),
                      want[static_cast<size_t>(c)])
          << i << ", " << c;
    }
  }
}

TEST(NCacheTableTest, SizeBytesScalesWithNodes) {
  NCacheTable small(10, 4);
  NCacheTable large(100, 4);
  EXPECT_EQ(large.SizeBytes(), 10 * small.SizeBytes());
}

TEST(NCacheTableTest, NoSelfInsertionThroughTwoHop) {
  NCacheTable table(10, 4);
  tensor::Rng rng(6);
  // Repeated (0, 5): c1(5) holds 0; the 2-hop sample for node 0 from
  // c1(5) would be 0 itself and must be skipped.
  for (int i = 0; i < 20; ++i) table.Observe(0, 5, rng);
  // If 0 ever entered c2(0), JointFeatures(0, x) channel 5 could produce
  // spurious overlap with c2(x) containing 0. Check overlap of c2(0) with
  // c1(5) = {0}: must be 0 because c2(0) excludes 0.
  EXPECT_FLOAT_EQ(table.JointFeatures(0, 5)[4], 0.0f);
}

}  // namespace
}  // namespace benchtemp::models
