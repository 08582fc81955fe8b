#include "models/tgat.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/distinct.h"
#include "tensor/numeric.h"

namespace benchtemp::models {

using tensor::GatherRows;
using tensor::Rows;
using tensor::RowsOf;
using tensor::Var;

namespace {

/// A timed query: a node and the bits of its query time. The node is 64
/// bits wide so the key has no padding bytes.
struct Query {
  int64_t node;
  double t;
};

/// Lists the distinct queries among (nodes[i], ts[i]) followed by
/// (more_nodes[j], more_ts[j]) in `level`, first occurrence first, and
/// returns each query's row there. Layer 0 ignores time, so an untimed
/// level keys by node alone.
std::vector<int32_t> ListDistinct(TgatPlan::Level* level, bool timed,
                                  const std::vector<int32_t>& nodes,
                                  const std::vector<double>& ts,
                                  const std::vector<int32_t>& more_nodes = {},
                                  const std::vector<double>& more_ts = {}) {
  if (!timed) {
    std::vector<int32_t> keys = nodes;
    keys.insert(keys.end(), more_nodes.begin(), more_nodes.end());
    tensor::Distinct<int32_t> distinct = tensor::Dedup(keys);
    level->nodes = std::move(distinct.values);
    return std::move(distinct.slot);
  }
  std::vector<Query> keys;
  keys.reserve(nodes.size() + more_nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) keys.push_back({nodes[i], ts[i]});
  for (size_t j = 0; j < more_nodes.size(); ++j) {
    keys.push_back({more_nodes[j], more_ts[j]});
  }
  tensor::Distinct<Query> distinct = tensor::Dedup(keys);
  level->nodes.reserve(distinct.values.size());
  level->ts.reserve(distinct.values.size());
  for (const Query& q : distinct.values) {
    level->nodes.push_back(tensor::NarrowId(q.node, "TGAT: plan node"));
    level->ts.push_back(q.t);
  }
  return std::move(distinct.slot);
}

}  // namespace

Tgat::Tgat(const graph::TemporalGraph* graph, ModelConfig config)
    : TgnnModel(graph, config),
      feature_proj_(graph->node_feature_dim(), config_.embedding_dim, rng_),
      time_encoder_(config_.time_dim) {
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    layers_.push_back(std::make_unique<tensor::MultiHeadAttention>(
        config_.embedding_dim + config_.time_dim,
        config_.embedding_dim + graph->edge_feature_dim() + config_.time_dim,
        config_.embedding_dim, config_.num_heads, rng_));
    layer_out_.push_back(std::make_unique<tensor::Linear>(
        2 * config_.embedding_dim, config_.embedding_dim, rng_));
  }
  // Listed by kind, not in construction order: every attention layer,
  // then every output projection.
  Own(feature_proj_);
  Own(time_encoder_);
  for (const auto& layer : layers_) Own(*layer);
  for (const auto& out : layer_out_) Own(*out);
  InitPredictor(config_.embedding_dim, config_.embedding_dim, rng_);
}

void Tgat::ResetImpl() {
  // Stateless: nothing to clear besides the error flag.
  ClearStatus();
}

TgatPlan Tgat::Plan(const std::vector<int32_t>& nodes,
                    const std::vector<double>& ts, tensor::Rng& rng) const {
  tensor::CheckOrDie(finder_ != nullptr, "TGAT: neighbor finder not set");
  tensor::CheckOrDie(nodes.size() == ts.size(), "TGAT: nodes/ts mismatch");
  for (const int32_t node : nodes) {
    tensor::CheckOrDie(node >= 0 && node < graph_->num_nodes(),
                       "TGAT: node id out of range");
  }
  const int64_t layers = config_.num_layers;
  TgatPlan plan;
  plan.nodes = nodes;
  plan.ts = ts;
  plan.levels.resize(static_cast<size_t>(layers) + 1);
  plan.out_rows = ListDistinct(&plan.levels.back(), layers > 0, nodes, ts);
  for (int64_t l = layers; l >= 1; --l) {
    TgatPlan::Level& level = plan.levels[static_cast<size_t>(l)];
    level.nb = finder_->SampleNeighborhood(level.nodes, level.ts,
                                           config_.num_neighbors,
                                           config_.tgat_time_window, rng);
    // The level below lists this level's own queries, then every
    // neighbour slot.
    std::vector<int32_t> rows =
        ListDistinct(&plan.levels[static_cast<size_t>(l - 1)], l > 1,
                     level.nodes, level.ts, level.nb.flat_neighbors,
                     level.nb.flat_times);
    level.nbr_rows.assign(rows.begin() + std::ssize(level.nodes), rows.end());
    rows.resize(level.nodes.size());
    level.self_rows = std::move(rows);
  }
  return plan;
}

std::unique_ptr<PreparedInputs> Tgat::PrepareBatch(
    const Batch& batch, const std::vector<int32_t>& negatives,
    uint64_t seed) const {
  auto out = std::make_unique<PreparedInputs>();
  tensor::Rng rng(tensor::SplitMix64(seed, 3));
  // ScoreEdges(pos) embeds srcs then dsts; ScoreEdges(neg) reuses the
  // source embeddings (SourceEmbeddings) and embeds negatives — build the
  // three plans in that consumption order.
  for (const std::vector<int32_t>* nodes :
       {&batch.srcs, &batch.dsts, &negatives}) {
    out->calls.push_back(
        std::make_unique<TgatPlan>(Plan(*nodes, batch.ts, rng)));
  }
  return out;
}

Var Tgat::Embed(const TgatPlan& plan) {
  Var h =
      feature_proj_.Forward({Rows(graph_->node_features(),
                                  plan.levels.front().nodes)});
  for (size_t l = 1; l < plan.levels.size(); ++l) {
    const TgatPlan::Level& level = plan.levels[l];
    const graph::SampledNeighborhood& nb = level.nb;
    const int64_t n = nb.num_queries;
    // The paper's "*": with a restrictive window no query of the layer can
    // assemble an attention neighborhood, which crashes the reference layer.
    if (config_.tgat_time_window > 0.0 && nb.empty_queries == n && n > 0) {
      status_ = ModelStatus::kRuntimeError;
    }
    // Query: the previous layer's self row ‖ time_enc(0), each projected
    // once per distinct row (the encoding is one row); the layer output
    // reads the same self rows.
    const auto self_prev = RowsOf(h, level.self_rows);
    const auto zero_dt =
        time_encoder_.EncodeRows(std::vector<float>(static_cast<size_t>(n)));
    // Keys: neighbor embedding ‖ edge features ‖ time_enc(t - t_e). Each
    // block is projected once per distinct row: the previous layer's rows,
    // the constant edge-feature rows and the encoded deltas.
    Var attended = layers_[l - 1]->Forward(
        {self_prev, zero_dt},
        {RowsOf(h, level.nbr_rows),
         Rows(graph_->edge_features(), nb.flat_edges),
         time_encoder_.EncodeRows(nb.flat_dts)},
        nb.mask, config_.num_neighbors);
    h = Relu(layer_out_[l - 1]->Forward({attended, self_prev}));
  }
  return GatherRows(h, plan.out_rows);
}

Var Tgat::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                            const std::vector<double>& ts) {
  // Pipelined path: the next prepared plan. Both sync and async modes
  // install identical prepared inputs, so every sampled neighbour is
  // mode-independent.
  const PreparedCall* call = NextPreparedCall(nodes, ts);
  if (call == nullptr) return Embed(Plan(nodes, ts, rng_));
  return Embed(static_cast<const TgatPlan&>(*call));
}

}  // namespace benchtemp::models
