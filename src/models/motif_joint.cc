#include "models/motif_joint.h"

namespace benchtemp::models {

using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

MotifJoint::MotifJoint(const graph::TemporalGraph* graph, ModelConfig config)
    : WalkModel(graph, config),
      hybrid_head_({config.embedding_dim + NCacheTable::kJointFeatureDim,
                    config.embedding_dim, 1},
                   rng_),
      caches_(graph->num_nodes(), NCacheTable::kModelCacheSize) {
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
  const int64_t n = static_cast<int64_t>(srcs.size());
  Tensor joint({n, NCacheTable::kJointFeatureDim});
  for (int64_t i = 0; i < n; ++i) {
    const auto features = caches_.JointFeatures(
        srcs[static_cast<size_t>(i)], dsts[static_cast<size_t>(i)]);
    for (int64_t c = 0; c < NCacheTable::kJointFeatureDim; ++c) {
      joint.at(i, c) = features[static_cast<size_t>(c)];
    }
  }
  return hybrid_head_.Forward({motif, Constant(std::move(joint))});
}

void MotifJoint::UpdateStateImpl(const Batch& batch) {
  for (int64_t i = 0; i < batch.size(); ++i) {
    caches_.Observe(batch.srcs[static_cast<size_t>(i)],
                    batch.dsts[static_cast<size_t>(i)], rng_);
  }
}

std::vector<Var> MotifJoint::SubclassParameters() const {
  return hybrid_head_.Parameters();
}

int64_t MotifJoint::StateBytes() const {
  return WalkModel::StateBytes() + caches_.SizeBytes();
}

}  // namespace benchtemp::models
