#include "models/tgat.h"

#include <string>

namespace benchtemp::models {

using tensor::ConcatCols;
using tensor::Rows;
using tensor::Var;

Tgat::Tgat(const graph::TemporalGraph* graph, ModelConfig config)
    : TgnnModel(graph, config),
      feature_proj_(graph->node_feature_dim(), config_.embedding_dim, rng_),
      time_encoder_(config_.time_dim, rng_) {
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    layers_.push_back(std::make_unique<tensor::MultiHeadAttention>(
        config_.embedding_dim + config_.time_dim,
        config_.embedding_dim + graph->edge_feature_dim() + config_.time_dim,
        config_.embedding_dim, config_.num_heads, rng_));
    layer_out_.push_back(std::make_unique<tensor::Linear>(
        2 * config_.embedding_dim, config_.embedding_dim, rng_));
  }
  InitPredictor(config_.embedding_dim, config_.embedding_dim, rng_);
}

void Tgat::ResetImpl() {
  // Stateless: nothing to clear besides the error flag.
  ClearStatus();
}

void Tgat::BuildSampleTree(const std::vector<int32_t>& nodes,
                           const std::vector<double>& ts, int64_t layer,
                           tensor::Rng& rng,
                           std::vector<graph::SampledNeighborhood>* out) const {
  if (layer == 0) return;
  graph::SampledNeighborhood nb = finder_->SampleNeighborhood(
      nodes, ts, config_.num_neighbors, config_.tgat_time_window, rng);
  // Copy the recursion inputs before the push_back: growing `out` would
  // invalidate a reference into it.
  std::vector<int32_t> flat_neighbors = nb.flat_neighbors;
  std::vector<double> flat_times = nb.flat_times;
  out->push_back(std::move(nb));
  BuildSampleTree(nodes, ts, layer - 1, rng, out);
  BuildSampleTree(flat_neighbors, flat_times, layer - 1, rng, out);
}

std::unique_ptr<PreparedInputs> Tgat::PrepareBatch(
    const Batch& batch, const std::vector<int32_t>& negatives,
    uint64_t seed) const {
  tensor::CheckOrDie(finder_ != nullptr, "TGAT: neighbor finder not set");
  auto out = std::make_unique<TgatPreparedInputs>();
  tensor::Rng rng(tensor::SplitMix64(seed, 3));
  // ScoreEdges(pos) embeds srcs then dsts; ScoreEdges(neg) reuses the
  // source embeddings (SourceEmbeddings) and embeds negatives — build the
  // three depth-first trees in that consumption order.
  BuildSampleTree(batch.srcs, batch.ts, config_.num_layers, rng, &out->fifo);
  BuildSampleTree(batch.dsts, batch.ts, config_.num_layers, rng, &out->fifo);
  BuildSampleTree(negatives, batch.ts, config_.num_layers, rng, &out->fifo);
  return out;
}

Var Tgat::EmbedLayer(const std::vector<int32_t>& nodes,
                     const std::vector<double>& ts, int64_t layer) {
  if (layer == 0) {
    return feature_proj_.Forward({Rows(graph_->node_features(), nodes)});
  }
  tensor::CheckOrDie(finder_ != nullptr, "TGAT: neighbor finder not set");
  const int64_t n = static_cast<int64_t>(nodes.size());
  const int64_t k = config_.num_neighbors;

  // Pipelined path: pop the next precomputed neighborhood; both sync and
  // async modes install identical prepared inputs, so consumption order —
  // and therefore every sampled neighbor — is mode-independent. Running
  // past the end would mean drawing from the member RNG instead, which
  // breaks that equality, so it is fatal.
  graph::SampledNeighborhood local;
  const graph::SampledNeighborhood* nb = nullptr;
  const auto* tp = dynamic_cast<const TgatPreparedInputs*>(prepared_);
  if (tp != nullptr) {
    if (tp->cursor >= tp->fifo.size()) {
      const std::string message =
          "TGAT: prepared neighborhoods exhausted at layer " +
          std::to_string(layer) + " (cursor " + std::to_string(tp->cursor) +
          " of " + std::to_string(tp->fifo.size()) + ")";
      tensor::CheckOrDie(false, message.c_str());
    }
    nb = &tp->fifo[tp->cursor++];
    tensor::CheckOrDie(nb->num_queries == n,
                       "TGAT: prepared neighborhood shape mismatch");
  } else {
    local = finder_->SampleNeighborhood(nodes, ts, k,
                                        config_.tgat_time_window, rng_);
    nb = &local;
  }
  // The paper's "*": with a restrictive window no query in the batch can
  // assemble an attention neighborhood, which crashes the reference layer.
  if (config_.tgat_time_window > 0.0 && nb->empty_queries == n && n > 0) {
    status_ = ModelStatus::kRuntimeError;
  }

  Var self_prev = EmbedLayer(nodes, ts, layer - 1);
  Var nbr_prev = EmbedLayer(nb->flat_neighbors, nb->flat_times, layer - 1);
  Var query = ConcatCols(
      {self_prev, time_encoder_.Encode(std::vector<float>(
                      static_cast<size_t>(n), 0.0f))});
  // Keys: neighbor embedding ‖ edge features ‖ time_enc(t - t_e); the edge
  // rows are gathered from the constant feature table and projected once
  // per distinct edge.
  Var attended = layers_[static_cast<size_t>(layer - 1)]->Forward(
      query,
      {nbr_prev, Rows(graph_->edge_features(), nb->flat_edges),
       time_encoder_.Encode(nb->flat_dts)},
      nb->mask, k);
  return Relu(layer_out_[static_cast<size_t>(layer - 1)]->Forward(
      ConcatCols({attended, self_prev})));
}

Var Tgat::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                            const std::vector<double>& ts) {
  return EmbedLayer(nodes, ts, config_.num_layers);
}

std::vector<Var> Tgat::Parameters() const {
  std::vector<Var> params = feature_proj_.Parameters();
  for (const Var& p : time_encoder_.Parameters()) params.push_back(p);
  for (const auto& layer : layers_) {
    for (const Var& p : layer->Parameters()) params.push_back(p);
  }
  for (const auto& out : layer_out_) {
    for (const Var& p : out->Parameters()) params.push_back(p);
  }
  for (const Var& p : predictor_->Parameters()) params.push_back(p);
  return params;
}

}  // namespace benchtemp::models
