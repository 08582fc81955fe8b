#include "models/tgat.h"

#include <algorithm>
#include <string>

namespace benchtemp::models {

using graph::TemporalNeighbor;
using tensor::ConcatCols;
using tensor::Rows;
using tensor::Tensor;
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

std::vector<TemporalNeighbor> Tgat::SampleWindowed(int32_t node, double ts,
                                                   int64_t k,
                                                   tensor::Rng& rng) const {
  int64_t count = 0;
  const TemporalNeighbor* history = finder_->Before(node, ts, &count);
  if (count == 0) return {};
  int64_t lo = 0;
  if (config_.tgat_time_window > 0.0) {
    const double window_start = ts - config_.tgat_time_window;
    lo = std::lower_bound(history, history + count, window_start,
                          [](const TemporalNeighbor& n, double t) {
                            return n.ts < t;
                          }) -
         history;
    if (lo >= count) return {};
  }
  std::vector<TemporalNeighbor> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    out.push_back(history[lo + rng.UniformInt(count - lo)]);
  }
  return out;
}

SampledNeighborhood Tgat::SampleNeighborhood(
    const std::vector<int32_t>& nodes, const std::vector<double>& ts,
    tensor::Rng& rng) const {
  tensor::CheckOrDie(finder_ != nullptr, "TGAT: neighbor finder not set");
  const int64_t n = static_cast<int64_t>(nodes.size());
  const int64_t k = config_.num_neighbors;
  SampledNeighborhood nb;
  nb.num_queries = n;
  nb.flat_neighbors.assign(static_cast<size_t>(n * k), 0);
  nb.flat_times.assign(static_cast<size_t>(n * k), 0.0);
  nb.flat_edges.assign(static_cast<size_t>(n * k), 0);
  nb.flat_dts.assign(static_cast<size_t>(n * k), 0.0f);
  nb.mask = Tensor({n, k});
  for (int64_t i = 0; i < n; ++i) {
    const auto sampled = SampleWindowed(nodes[static_cast<size_t>(i)],
                                        ts[static_cast<size_t>(i)], k, rng);
    if (sampled.empty()) ++nb.empty_queries;
    for (size_t j = 0; j < sampled.size(); ++j) {
      const TemporalNeighbor& nbr = sampled[j];
      nb.flat_neighbors[static_cast<size_t>(i * k) + j] = nbr.neighbor;
      nb.flat_times[static_cast<size_t>(i * k) + j] = nbr.ts;
      nb.flat_edges[static_cast<size_t>(i * k) + j] = nbr.edge_idx;
      nb.flat_dts[static_cast<size_t>(i * k) + j] =
          static_cast<float>(ts[static_cast<size_t>(i)] - nbr.ts);
      nb.mask.at(i, static_cast<int64_t>(j)) = 1.0f;
    }
  }
  return nb;
}

void Tgat::BuildSampleTree(const std::vector<int32_t>& nodes,
                           const std::vector<double>& ts, int64_t layer,
                           tensor::Rng& rng,
                           std::vector<SampledNeighborhood>* out) const {
  if (layer == 0) return;
  SampledNeighborhood nb = SampleNeighborhood(nodes, ts, rng);
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
  SampledNeighborhood local;
  const SampledNeighborhood* nb = nullptr;
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
    local = SampleNeighborhood(nodes, ts, rng_);
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
