#include "models/motif_joint.h"

namespace benchtemp::models {

using tensor::Constant;
using tensor::Var;

MotifJoint::MotifJoint(const graph::TemporalGraph* graph, ModelConfig config)
    : WalkModel(graph, config),
      hybrid_head_({config.embedding_dim + NCacheTable::kJointFeatureDim,
                    config.embedding_dim, 1},
                   rng_),
      caches_(graph->num_nodes(), NCacheTable::kModelCacheSize) {
  Own(hybrid_head_);
  sampler_ = std::make_unique<graph::TemporalWalkSampler>(
      config_.walk_bias, /*alpha=*/1.0 / graph_->MeanEventGap());
}

void MotifJoint::ResetImpl() {
  WalkModel::ResetImpl();
  caches_.Reset();
}

Var MotifJoint::ScoreEdges(const std::vector<int32_t>& srcs,
                           const std::vector<int32_t>& dsts,
                           const std::vector<double>& ts) {
  Var motif = EncodePairs(srcs, dsts, ts);
  return hybrid_head_.Forward(
      {motif, Constant(caches_.JointFeatureBlock(srcs, dsts))});
}

void MotifJoint::UpdateStateImpl(const Batch& batch) {
  caches_.ObserveBatch(batch, rng_);
}

int64_t MotifJoint::StateBytes() const {
  return WalkModel::StateBytes() + caches_.SizeBytes();
}

}  // namespace benchtemp::models
