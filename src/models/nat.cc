#include "models/nat.h"

namespace benchtemp::models {

using tensor::Constant;
using tensor::Var;

Nat::Nat(const graph::TemporalGraph* graph, ModelConfig config)
    : MemoryModel(graph, config),
      gru_(MessageDim(), config_.embedding_dim, rng_),
      scorer_({2 * config_.embedding_dim + kJointFeatureDim +
                   config_.time_dim,
               config_.embedding_dim, 1},
              rng_),
      embed_head_(config_.embedding_dim, config_.embedding_dim, rng_),
      caches_(graph->num_nodes(), NCacheTable::kModelCacheSize) {
  Own(gru_);
  Own(scorer_);
  Own(embed_head_);
}

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
  std::vector<float> dts(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    dts[static_cast<size_t>(i)] = static_cast<float>(
        ts[static_cast<size_t>(i)] -
        LastUpdate(srcs[static_cast<size_t>(i)]));
  }
  return scorer_.Forward({mem_u, mem_v,
                          Constant(caches_.JointFeatureBlock(srcs, dsts)),
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
  caches_.ObserveBatch(batch, rng_);
}

int64_t Nat::StateBytes() const {
  return MemoryModel::StateBytes() + caches_.SizeBytes();
}

}  // namespace benchtemp::models
