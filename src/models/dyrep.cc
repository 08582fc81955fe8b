#include "models/dyrep.h"

namespace benchtemp::models {

using tensor::Var;

DyRep::DyRep(const graph::TemporalGraph* graph, ModelConfig config)
    : MemoryModel(graph, config),
      rnn_(2 * config_.embedding_dim + graph->edge_feature_dim() +
               config_.time_dim,
           config_.embedding_dim, rng_),
      neighbor_attention_(config_.embedding_dim,
                          config_.embedding_dim + config_.time_dim,
                          config_.embedding_dim, 1, rng_),
      identity_(config_.embedding_dim, config_.embedding_dim, rng_) {
  Own(rnn_);
  Own(neighbor_attention_);
  Own(identity_);
  InitPredictor(config_.embedding_dim, config_.embedding_dim, rng_);
}

Var DyRep::AggregateNeighborhood(const std::vector<int32_t>& others,
                                 const std::vector<double>& ts,
                                 const Var& queries) {
  const int64_t k = config_.num_neighbors;
  tensor::CheckOrDie(finder_ != nullptr, "DyRep: neighbor finder not set");
  const graph::SampledNeighborhood nb =
      finder_->SampleNeighborhood(others, ts, k, /*window=*/0.0, rng_);
  // Keys/values: neighbor memory (detached rows of the memory table) ‖
  // time encoding of the recency gap.
  return neighbor_attention_.Forward(
      {queries},
      {tensor::Rows(memory(), nb.flat_neighbors),
       time_encoder_.EncodeRows(nb.flat_dts)},
      nb.mask, k);
}

Var DyRep::ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                               const tensor::Var& prev_memory) {
  // DyRep message: [attn(neighborhood of other) ; mem(other) ; edge ; dt].
  std::vector<int32_t> others, edge_idxs;
  std::vector<double> ts;
  std::vector<float> dts;
  for (const MemoryEvent& e : events) {
    others.push_back(e.other);
    edge_idxs.push_back(e.edge_idx);
    ts.push_back(e.ts);
    dts.push_back(static_cast<float>(e.ts - LastUpdate(e.node)));
  }
  Var other_memory = GatherMemory(others);
  return rnn_.Forward(
      {AggregateNeighborhood(others, ts, other_memory), other_memory,
       EdgeFeatureBlock(edge_idxs), time_encoder_.Encode(dts)},
      prev_memory);
}

Var DyRep::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                             const std::vector<double>& ts) {
  ProcessPending();
  (void)ts;
  // DyRep reads the memory directly ("identity" embedding) through a linear
  // head.
  return identity_.Forward({GatherMemory(nodes)});
}

}  // namespace benchtemp::models
