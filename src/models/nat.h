#ifndef BENCHTEMP_MODELS_NAT_H_
#define BENCHTEMP_MODELS_NAT_H_

#include <string>
#include <vector>

#include "models/memory_base.h"
#include "models/ncache.h"

namespace benchtemp::models {

/// NAT (Luo & Li, LoG 2022): neighborhood-aware temporal representation.
/// Each node keeps *N-caches* — fixed-size dictionaries of its recent 1-hop
/// and (down-sampled) 2-hop neighborhood — updated in O(1) per event. Edge
/// scoring combines the endpoints' state vectors with *joint neighborhood*
/// structural features read from the caches (common-neighbor counts,
/// direct-containment bits), which is what gives NAT its strong inductive
/// New-New behaviour at a fraction of the walk models' cost.
class Nat : public MemoryModel {
 public:
  Nat(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "NAT"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;
  tensor::Var ScoreEdges(const std::vector<int32_t>& srcs,
                         const std::vector<int32_t>& dsts,
                         const std::vector<double>& ts) override;
  int64_t StateBytes() const override;

  /// Number of joint-neighborhood structural features.
  static constexpr int64_t kJointFeatureDim = NCacheTable::kJointFeatureDim;

  /// Exposed for tests: joint features of a candidate pair.
  std::vector<float> JointFeatures(int32_t u, int32_t v) const {
    return caches_.JointFeatures(u, v);
  }

 protected:
  void ResetImpl() override;
  void UpdateStateImpl(const Batch& batch) override;
  tensor::Var ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                                  const tensor::Var& prev_memory) override;

 private:
  tensor::GruCell gru_;
  tensor::Mlp scorer_;
  tensor::Linear embed_head_;
  NCacheTable caches_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_NAT_H_
