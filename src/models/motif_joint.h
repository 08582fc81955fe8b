#ifndef BENCHTEMP_MODELS_MOTIF_JOINT_H_
#define BENCHTEMP_MODELS_MOTIF_JOINT_H_

#include <string>
#include <vector>

#include "models/ncache.h"
#include "models/walk_base.h"

namespace benchtemp::models {

/// MotifJoint — the paper's stated future direction, implemented:
/// "the future directions of TGNN models are more focused on ... increasing
/// the model's structure-aware ability by jointing motifs [CAWN, NeurTW]
/// and joint-neighborhood [NAT]" (Section 4.4).
///
/// The model combines the two structure channels the paper found strongest:
///   * a causal-anonymous-walk motif encoding of the candidate pair
///     (CAWN's machinery, via WalkModel::EncodePairs), and
///   * NAT's O(1) joint-neighborhood features read from N-caches,
/// merged by a two-layer scorer. The caches are maintained per observed
/// event exactly as in NAT, so the extra cost over CAWN is negligible.
class MotifJoint : public WalkModel {
 public:
  MotifJoint(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "MotifJoint"; }
  tensor::Var ScoreEdges(const std::vector<int32_t>& srcs,
                         const std::vector<int32_t>& dsts,
                         const std::vector<double>& ts) override;
  int64_t StateBytes() const override;

 protected:
  void ResetImpl() override;
  void UpdateStateImpl(const Batch& batch) override;

 private:
  tensor::Mlp hybrid_head_;
  NCacheTable caches_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_MOTIF_JOINT_H_
