#include "models/ncache.h"

#include <algorithm>

#include "models/model.h"

namespace benchtemp::models {

NCacheTable::NCacheTable(int32_t num_nodes, int64_t cache_size)
    : cache_size_(cache_size) {
  hop1_.resize(static_cast<size_t>(num_nodes));
  hop2_.resize(static_cast<size_t>(num_nodes));
  for (size_t i = 0; i < hop1_.size(); ++i) {
    hop1_[i].slots.assign(static_cast<size_t>(cache_size_), -1);
    hop2_[i].slots.assign(static_cast<size_t>(cache_size_), -1);
  }
}

void NCacheTable::Reset() {
  for (auto* level : {&hop1_, &hop2_}) {
    for (Cache& cache : *level) {
      std::fill(cache.slots.begin(), cache.slots.end(), -1);
      cache.next = 0;
    }
  }
}

void NCacheTable::Push(std::vector<Cache>& level, int32_t node,
                       int32_t value) {
  Cache& cache = level[static_cast<size_t>(node)];
  cache.slots[static_cast<size_t>(cache.next)] = value;
  cache.next = (cache.next + 1) % static_cast<int64_t>(cache.slots.size());
}

bool NCacheTable::Contains(const Cache& cache, int32_t value) {
  for (int32_t slot : cache.slots) {
    if (slot == value) return true;
  }
  return false;
}

int64_t NCacheTable::Overlap(const Cache& a, const Cache& b) {
  int64_t count = 0;
  for (int32_t x : a.slots) {
    if (x < 0) continue;
    for (int32_t y : b.slots) {
      if (x == y) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void NCacheTable::Observe(int32_t u, int32_t v, tensor::Rng& rng) {
  // Sample the 2-hop candidates *before* inserting u/v so a node does not
  // immediately see itself through the fresh edge.
  auto sample_from = [this, &rng](int32_t node) -> int32_t {
    const Cache& cache = hop1_[static_cast<size_t>(node)];
    return cache.slots[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(cache.slots.size())))];
  };
  const int32_t u_two_hop = sample_from(v);
  const int32_t v_two_hop = sample_from(u);
  Push(hop1_, u, v);
  Push(hop1_, v, u);
  if (u_two_hop >= 0 && u_two_hop != u) Push(hop2_, u, u_two_hop);
  if (v_two_hop >= 0 && v_two_hop != v) Push(hop2_, v, v_two_hop);
}

void NCacheTable::ObserveBatch(const Batch& batch, tensor::Rng& rng) {
  for (size_t i = 0; i < batch.srcs.size(); ++i) {
    Observe(batch.srcs[i], batch.dsts[i], rng);
  }
}

std::vector<float> NCacheTable::JointFeatures(int32_t u, int32_t v) const {
  const Cache& u1 = hop1_[static_cast<size_t>(u)];
  const Cache& v1 = hop1_[static_cast<size_t>(v)];
  const Cache& u2 = hop2_[static_cast<size_t>(u)];
  const Cache& v2 = hop2_[static_cast<size_t>(v)];
  const float inv = 1.0f / static_cast<float>(cache_size_);
  return {
      Contains(u1, v) ? 1.0f : 0.0f,
      Contains(v1, u) ? 1.0f : 0.0f,
      static_cast<float>(Overlap(u1, v1)) * inv,
      static_cast<float>(Overlap(u1, v2)) * inv,
      static_cast<float>(Overlap(u2, v1)) * inv,
      static_cast<float>(Overlap(u2, v2)) * inv,
  };
}

tensor::Tensor NCacheTable::JointFeatureBlock(
    const std::vector<int32_t>& srcs, const std::vector<int32_t>& dsts) const {
  tensor::Tensor block({static_cast<int64_t>(srcs.size()), kJointFeatureDim});
  for (size_t i = 0; i < srcs.size(); ++i) {
    const std::vector<float> features = JointFeatures(srcs[i], dsts[i]);
    std::copy(features.begin(), features.end(),
              block.data() + static_cast<int64_t>(i) * kJointFeatureDim);
  }
  return block;
}

int64_t NCacheTable::SizeBytes() const {
  return static_cast<int64_t>(hop1_.size() + hop2_.size()) * cache_size_ *
         static_cast<int64_t>(sizeof(int32_t));
}

}  // namespace benchtemp::models
