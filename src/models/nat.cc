#include "models/nat.h"

namespace benchtemp::models {

using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

Nat::Nat(const graph::TemporalGraph* graph, ModelConfig config)
    : MemoryModel(graph, config),
      gru_(MessageDim(), config_.embedding_dim, rng_),
      scorer_({2 * config_.embedding_dim + kJointFeatureDim +
                   config_.time_dim,
               config_.embedding_dim, 1},
              rng_),
      embed_head_(config_.embedding_dim, config_.embedding_dim, rng_),
      caches_(graph->num_nodes(), NCacheTable::kModelCacheSize) {}

void Nat::ResetImpl() {
  MemoryModel::ResetImpl();
  caches_.Reset();
}

Var Nat::ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                             const tensor::Var& prev_memory) {
  return gru_.Forward(BuildMessages(events), prev_memory);
}

Var Nat::ScoreEdges(const std::vector<int32_t>& srcs,
                    const std::vector<int32_t>& dsts,
                    const std::vector<double>& ts) {
  ProcessPending();
  const int64_t n = static_cast<int64_t>(srcs.size());
  Var mem_u = GatherMemory(srcs);
  Var mem_v = GatherMemory(dsts);
  Tensor joint({n, kJointFeatureDim});
  std::vector<float> dts(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const auto features = caches_.JointFeatures(
        srcs[static_cast<size_t>(i)], dsts[static_cast<size_t>(i)]);
    for (int64_t c = 0; c < kJointFeatureDim; ++c) {
      joint.at(i, c) = features[static_cast<size_t>(c)];
    }
    dts[static_cast<size_t>(i)] = static_cast<float>(
        ts[static_cast<size_t>(i)] -
        LastUpdate(srcs[static_cast<size_t>(i)]));
  }
  return scorer_.Forward({mem_u, mem_v, Constant(std::move(joint)),
                          time_encoder_.Encode(dts)});
}

Var Nat::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                           const std::vector<double>& ts) {
  ProcessPending();
  (void)ts;
  return embed_head_.Forward({GatherMemory(nodes)});
}

void Nat::UpdateStateImpl(const Batch& batch) {
  MemoryModel::UpdateStateImpl(batch);
  // O(1) N-cache maintenance per event.
  for (int64_t i = 0; i < batch.size(); ++i) {
    caches_.Observe(batch.srcs[static_cast<size_t>(i)],
                    batch.dsts[static_cast<size_t>(i)], rng_);
  }
}

std::vector<Var> Nat::UpdaterParameters() const {
  std::vector<Var> params = gru_.Parameters();
  for (const Var& p : scorer_.Parameters()) params.push_back(p);
  for (const Var& p : embed_head_.Parameters()) params.push_back(p);
  return params;
}

int64_t Nat::StateBytes() const {
  return MemoryModel::StateBytes() + caches_.SizeBytes();
}

}  // namespace benchtemp::models
