#include "models/tgn.h"

namespace benchtemp::models {

using tensor::Var;

Tgn::Tgn(const graph::TemporalGraph* graph, ModelConfig config)
    : MemoryModel(graph, config),
      gru_(MessageDim(), config_.embedding_dim, rng_),
      attention_(config_.embedding_dim + config_.time_dim,
                 config_.embedding_dim + graph->edge_feature_dim() +
                     config_.time_dim,
                 config_.embedding_dim, config_.num_heads, rng_),
      out_(2 * config_.embedding_dim, config_.embedding_dim, rng_) {
  Own(gru_);
  Own(attention_);
  Own(out_);
  InitPredictor(config_.embedding_dim, config_.embedding_dim, rng_);
}

Var Tgn::ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                             const tensor::Var& prev_memory) {
  return gru_.Forward(BuildMessages(events), prev_memory);
}

Var Tgn::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                           const std::vector<double>& ts) {
  ProcessPending();
  tensor::CheckOrDie(finder_ != nullptr, "TGN: neighbor finder not set");
  const int64_t n = static_cast<int64_t>(nodes.size());
  const int64_t k = config_.num_neighbors;

  // Query: memory ‖ time_enc(0), each projected once per distinct row (the
  // encoding is one row); the output reads the same memory rows.
  const auto memory = MemoryRows(nodes);
  const auto zero_dt =
      time_encoder_.EncodeRows(std::vector<float>(static_cast<size_t>(n)));

  // Keys/values: neighbor memory ‖ edge features ‖ time_enc(t - t_e), each
  // projected once per distinct memory row, edge and delta.
  const graph::SampledNeighborhood nb =
      finder_->SampleNeighborhood(nodes, ts, k, /*window=*/0.0, rng_);
  Var attended = attention_.Forward(
      {memory, zero_dt},
      {MemoryRows(nb.flat_neighbors),
       tensor::Rows(graph_->edge_features(), nb.flat_edges),
       time_encoder_.EncodeRows(nb.flat_dts)},
      nb.mask, k);
  // Residual combine with the node's own memory.
  return out_.Forward({attended, memory});
}

}  // namespace benchtemp::models
