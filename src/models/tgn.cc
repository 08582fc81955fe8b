#include "models/tgn.h"

namespace benchtemp::models {

using graph::TemporalNeighbor;
using tensor::ConcatCols;
using tensor::ConcatRows;
using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

Tgn::Tgn(const graph::TemporalGraph* graph, ModelConfig config)
    : MemoryModel(graph, config),
      gru_(MessageDim(), config_.embedding_dim, rng_),
      attention_(config_.embedding_dim + config_.time_dim,
                 config_.embedding_dim + graph->edge_feature_dim() +
                     config_.time_dim,
                 config_.embedding_dim, config_.num_heads, rng_),
      out_(2 * config_.embedding_dim, config_.embedding_dim, rng_) {
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
  const int64_t d = config_.embedding_dim;

  Var memory = GatherMemory(nodes);
  // Query: memory ‖ time_enc(0).
  Var query = ConcatCols(
      {memory, time_encoder_.Encode(std::vector<float>(
                   static_cast<size_t>(n), 0.0f))});

  // Keys/values: neighbor memory ‖ edge features ‖ time_enc(t - t_e).
  std::vector<int32_t> flat_neighbors(static_cast<size_t>(n * k), 0);
  std::vector<int32_t> flat_edges(static_cast<size_t>(n * k), 0);
  std::vector<float> flat_dts(static_cast<size_t>(n * k), 0.0f);
  Tensor mask({n, k});
  for (int64_t i = 0; i < n; ++i) {
    const auto sampled = finder_->SampleUniform(
        nodes[static_cast<size_t>(i)], ts[static_cast<size_t>(i)], k, rng_);
    for (size_t j = 0; j < sampled.size(); ++j) {
      const TemporalNeighbor& nbr = sampled[j];
      flat_neighbors[static_cast<size_t>(i * k) + j] = nbr.neighbor;
      flat_edges[static_cast<size_t>(i * k) + j] = nbr.edge_idx;
      flat_dts[static_cast<size_t>(i * k) + j] =
          static_cast<float>(ts[static_cast<size_t>(i)] - nbr.ts);
      mask.at(i, static_cast<int64_t>(j)) = 1.0f;
    }
  }
  Var attended = attention_.Forward(
      query,
      {GatherMemory(flat_neighbors),
       tensor::Rows(graph_->edge_features(), flat_edges),
       time_encoder_.Encode(flat_dts)},
      mask, k);
  // Residual combine with the node's own memory.
  (void)d;
  return out_.Forward(ConcatCols({attended, memory}));
}

std::vector<Var> Tgn::UpdaterParameters() const {
  std::vector<Var> params = gru_.Parameters();
  for (const Var& p : attention_.Parameters()) params.push_back(p);
  for (const Var& p : out_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace benchtemp::models
