#ifndef BENCHTEMP_MODELS_NCACHE_H_
#define BENCHTEMP_MODELS_NCACHE_H_

#include <cstdint>
#include <vector>

#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp::models {

struct Batch;

/// NAT's *N-cache* data structure (Luo & Li, 2022), factored out so other
/// models can reuse it: per-node fixed-size ring buffers of recent 1-hop
/// and (down-sampled) 2-hop neighbor ids, updated in O(1) per event, read
/// as joint-neighborhood structural features of a candidate pair.
class NCacheTable {
 public:
  /// Number of joint-neighborhood features produced by JointFeatures().
  static constexpr int64_t kJointFeatureDim = 6;
  /// Entries per node in each cache level of NAT and MotifJoint.
  static constexpr int64_t kModelCacheSize = 8;

  NCacheTable(int32_t num_nodes, int64_t cache_size);

  /// Empties every cache.
  void Reset();

  /// Registers one observed interaction (u, v): the endpoints enter each
  /// other's 1-hop cache and one sampled member of the partner's 1-hop
  /// cache enters the 2-hop cache.
  void Observe(int32_t u, int32_t v, tensor::Rng& rng);
  /// Observes each event of `batch` in event order.
  void ObserveBatch(const Batch& batch, tensor::Rng& rng);

  /// Joint-neighborhood features of a candidate pair:
  ///   [v in c1(u), u in c1(v), |c1(u) ∩ c1(v)|, |c1(u) ∩ c2(v)|,
  ///    |c2(u) ∩ c1(v)|, |c2(u) ∩ c2(v)|], overlaps normalized by the
  /// cache size.
  std::vector<float> JointFeatures(int32_t u, int32_t v) const;
  /// JointFeatures(srcs[i], dsts[i]) as row i -> [n, kJointFeatureDim].
  tensor::Tensor JointFeatureBlock(const std::vector<int32_t>& srcs,
                                   const std::vector<int32_t>& dsts) const;

  int64_t cache_size() const { return cache_size_; }
  /// Bytes held by the caches (for efficiency accounting).
  int64_t SizeBytes() const;

 private:
  struct Cache {
    std::vector<int32_t> slots;  // -1 = empty
    int64_t next = 0;
  };

  void Push(std::vector<Cache>& level, int32_t node, int32_t value);
  static bool Contains(const Cache& cache, int32_t value);
  static int64_t Overlap(const Cache& a, const Cache& b);

  int64_t cache_size_;
  std::vector<Cache> hop1_;
  std::vector<Cache> hop2_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_NCACHE_H_
