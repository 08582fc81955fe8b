#include "models/tgat.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "tensor/numeric.h"

namespace benchtemp::models {

using tensor::ConcatCols;
using tensor::GatherRows;
using tensor::Rows;
using tensor::Var;

namespace {

/// Appends the distinct queries of one plan level to `level` in
/// first-occurrence order. Layer 0 ignores time, so a dense per-node head
/// (as tensor::Rows) holds each node's row. The timed layers key by node
/// and the bits of the query time in an open-addressing table of at least
/// twice the level's lookups. A per-node chain through the distinct times
/// would walk 11 rows per lookup at perfbench's tgat-train shape, where hub
/// nodes are queried at many times.
class LevelIndex {
 public:
  LevelIndex(TgatPlan::Level* level, bool timed, size_t lookups,
             int32_t num_nodes)
      : level_(level), timed_(timed) {
    size_t size = static_cast<size_t>(num_nodes);
    if (timed) {
      size = 16;
      while (size < 2 * lookups) size *= 2;
      level->ts.reserve(lookups);
    }
    slots_.assign(size, -1);
    level->nodes.reserve(timed ? lookups : std::min(lookups, size));
  }

  /// Row of the query (node, t); a new query is appended.
  int64_t RowOf(int32_t node, double t) {
    if (!timed_) {
      int32_t& row = slots_[static_cast<size_t>(node)];
      if (row < 0) row = Append(node, t);
      return row;
    }
    const uint64_t bits = std::bit_cast<uint64_t>(t);
    const size_t mask = slots_.size() - 1;
    size_t s = tensor::SplitMix64(bits, static_cast<uint64_t>(node)) & mask;
    for (; slots_[s] >= 0; s = (s + 1) & mask) {
      const size_t r = static_cast<size_t>(slots_[s]);
      if (level_->nodes[r] == node &&
          std::bit_cast<uint64_t>(level_->ts[r]) == bits) {
        return slots_[s];
      }
    }
    slots_[s] = Append(node, t);
    return slots_[s];
  }

 private:
  int32_t Append(int32_t node, double t) {
    const int32_t row = tensor::NarrowId(
        static_cast<int64_t>(level_->nodes.size()), "TGAT: plan rows");
    level_->nodes.push_back(node);
    if (timed_) level_->ts.push_back(t);
    return row;
  }

  TgatPlan::Level* level_;
  bool timed_;
  std::vector<int32_t> slots_;
};

}  // namespace

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
  LevelIndex top(&plan.levels.back(), layers > 0, nodes.size(),
                 graph_->num_nodes());
  plan.out_rows.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    plan.out_rows.push_back(top.RowOf(nodes[i], ts[i]));
  }
  for (int64_t l = layers; l >= 1; --l) {
    TgatPlan::Level& level = plan.levels[static_cast<size_t>(l)];
    level.nb = finder_->SampleNeighborhood(level.nodes, level.ts,
                                           config_.num_neighbors,
                                           config_.tgat_time_window, rng);
    const graph::SampledNeighborhood& nb = level.nb;
    LevelIndex below(&plan.levels[static_cast<size_t>(l - 1)], l > 1,
                     level.nodes.size() + nb.flat_neighbors.size(),
                     graph_->num_nodes());
    level.self_rows.reserve(level.nodes.size());
    for (size_t i = 0; i < level.nodes.size(); ++i) {
      level.self_rows.push_back(below.RowOf(level.nodes[i], level.ts[i]));
    }
    level.nbr_rows.reserve(nb.flat_neighbors.size());
    for (size_t s = 0; s < nb.flat_neighbors.size(); ++s) {
      level.nbr_rows.push_back(
          below.RowOf(nb.flat_neighbors[s], nb.flat_times[s]));
    }
  }
  return plan;
}

std::unique_ptr<PreparedInputs> Tgat::PrepareBatch(
    const Batch& batch, const std::vector<int32_t>& negatives,
    uint64_t seed) const {
  auto out = std::make_unique<TgatPreparedInputs>();
  tensor::Rng rng(tensor::SplitMix64(seed, 3));
  // ScoreEdges(pos) embeds srcs then dsts; ScoreEdges(neg) reuses the
  // source embeddings (SourceEmbeddings) and embeds negatives — build the
  // three plans in that consumption order.
  out->fifo.push_back(Plan(batch.srcs, batch.ts, rng));
  out->fifo.push_back(Plan(batch.dsts, batch.ts, rng));
  out->fifo.push_back(Plan(negatives, batch.ts, rng));
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
    Var self_prev = GatherRows(h, level.self_rows);
    Var nbr_prev = GatherRows(h, level.nbr_rows);
    Var query = ConcatCols(
        {self_prev, time_encoder_.Encode(std::vector<float>(
                        static_cast<size_t>(n), 0.0f))});
    // Keys: neighbor embedding ‖ edge features ‖ time_enc(t - t_e); the edge
    // rows are gathered from the constant feature table and projected once
    // per distinct edge.
    Var attended = layers_[l - 1]->Forward(
        query,
        {nbr_prev, Rows(graph_->edge_features(), nb.flat_edges),
         time_encoder_.Encode(nb.flat_dts)},
        nb.mask, config_.num_neighbors);
    h = Relu(layer_out_[l - 1]->Forward(ConcatCols({attended, self_prev})));
  }
  return GatherRows(h, plan.out_rows);
}

Var Tgat::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                            const std::vector<double>& ts) {
  const auto* tp = dynamic_cast<const TgatPreparedInputs*>(prepared_);
  if (tp == nullptr) return Embed(Plan(nodes, ts, rng_));
  // Pipelined path: take the next prepared plan. Both sync and async modes
  // install identical prepared inputs, so consumption order — and
  // therefore every sampled neighbor — is mode-independent. Running past
  // the end would mean drawing from the member RNG instead, which breaks
  // that equality, and a plan built for another query list (say the
  // negatives scored before the destinations, both n long) would embed the
  // wrong neighbourhoods; both are fatal.
  const auto where = [tp] {
    return " (cursor " + std::to_string(tp->cursor) + " of " +
           std::to_string(tp->fifo.size()) + ")";
  };
  if (tp->cursor >= tp->fifo.size()) {
    const std::string message = "TGAT: prepared plans exhausted" + where();
    tensor::CheckOrDie(false, message.c_str());
  }
  const TgatPlan& plan = tp->fifo[tp->cursor];
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  if (plan.nodes != nodes || !std::equal(plan.ts.begin(), plan.ts.end(),
                                         ts.begin(), ts.end(), same_bits)) {
    const std::string message =
        "TGAT: prepared plan built for other queries" + where();
    tensor::CheckOrDie(false, message.c_str());
  }
  ++tp->cursor;
  return Embed(plan);
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
