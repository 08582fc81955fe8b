#include "models/temp_model.h"

#include <algorithm>
#include <cmath>

namespace benchtemp::models {

using graph::TemporalNeighbor;
using tensor::Tensor;
using tensor::Var;

TempModel::TempModel(const graph::TemporalGraph* graph, ModelConfig config)
    : MemoryModel(graph, config),
      rnn_(MessageDim(), config_.embedding_dim, rng_),
      message_proj_(graph->edge_feature_dim() + config_.time_dim,
                    config_.embedding_dim, rng_),
      combine_(3 * config_.embedding_dim, config_.embedding_dim, rng_) {
  Own(rnn_);
  Own(message_proj_);
  Own(combine_);
  InitPredictor(config_.embedding_dim, config_.embedding_dim, rng_);
}

Var TempModel::ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                                   const tensor::Var& prev_memory) {
  return rnn_.Forward(BuildMessages(events), prev_memory);
}

Var TempModel::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                 const std::vector<double>& ts) {
  ProcessPending();
  tensor::CheckOrDie(finder_ != nullptr, "TeMP: neighbor finder not set");
  const int64_t n = static_cast<int64_t>(nodes.size());
  const int64_t k = config_.num_neighbors;

  // (b) Subgraph construction: per node, find the reference timestamp (mean
  // of its history) and take the most recent neighbors at or before it;
  // nodes whose history is entirely after the reference fall back to the
  // plain most-recent window.
  std::vector<int32_t> flat_neighbors(static_cast<size_t>(n * k), 0);
  std::vector<int32_t> flat_edges(static_cast<size_t>(n * k), 0);
  Tensor lpa_weights({n, k});
  Tensor mp_weights({n, k});
  std::vector<float> flat_dts(static_cast<size_t>(n * k), 0.0f);
  const double scale = graph_->MeanEventGap() * 16.0;
  for (int64_t i = 0; i < n; ++i) {
    const int32_t node = nodes[static_cast<size_t>(i)];
    const double t = ts[static_cast<size_t>(i)];
    int64_t count = 0;
    const TemporalNeighbor* history = finder_->Before(node, t, &count);
    if (count == 0) continue;
    // Reference timestamp: the mean of the node's history (the paper's
    // choice) or a configured quantile (the Appendix E ablation).
    double ref_ts;
    if (config_.temp_reference_quantile < 0.0) {
      ref_ts = 0.0;
      for (int64_t j = 0; j < count; ++j) ref_ts += history[j].ts;
      ref_ts /= static_cast<double>(count);
    } else {
      const int64_t pick = std::min<int64_t>(
          static_cast<int64_t>(config_.temp_reference_quantile *
                               static_cast<double>(count - 1) +
                               0.5),
          count - 1);
      ref_ts = history[pick].ts;
    }
    // Prefix of history at or before the reference timestamp.
    int64_t ref_end = std::upper_bound(history, history + count, ref_ts,
                                       [](double v, const TemporalNeighbor& x) {
                                         return v < x.ts;
                                       }) -
                      history;
    if (ref_end == 0) ref_end = count;
    const int64_t take = std::min(k, ref_end);
    // Recency-softmax LPA weights over the selected window.
    double max_score = -1e300;
    std::vector<double> scores(static_cast<size_t>(take));
    for (int64_t j = 0; j < take; ++j) {
      const TemporalNeighbor& nbr = history[ref_end - take + j];
      const int64_t row = i * k + j;
      flat_neighbors[static_cast<size_t>(row)] = nbr.neighbor;
      flat_edges[static_cast<size_t>(row)] = nbr.edge_idx;
      flat_dts[static_cast<size_t>(row)] =
          static_cast<float>((t - nbr.ts) / scale);
      scores[static_cast<size_t>(j)] = -(t - nbr.ts) / scale;
      max_score = std::max(max_score, scores[static_cast<size_t>(j)]);
    }
    double total = 0.0;
    for (int64_t j = 0; j < take; ++j) {
      scores[static_cast<size_t>(j)] =
          std::exp(scores[static_cast<size_t>(j)] - max_score);
      total += scores[static_cast<size_t>(j)];
    }
    for (int64_t j = 0; j < take; ++j) {
      lpa_weights.at(i, j) =
          static_cast<float>(scores[static_cast<size_t>(j)] / total);
      mp_weights.at(i, j) = 1.0f / static_cast<float>(take);
    }
  }

  // (c) Two aggregation channels + own memory.
  Var nbr_memory = GatherMemory(flat_neighbors);
  Var lpa = BatchWeightedSum(lpa_weights, nbr_memory, k);
  Var messages = Relu(message_proj_.Forward(
      {tensor::Rows(graph_->edge_features(), flat_edges),
       time_encoder_.EncodeRows(flat_dts)}));
  Var mp = BatchWeightedSum(mp_weights, messages, k);
  Var own = GatherMemory(nodes);
  return Tanh(combine_.Forward({own, lpa, mp}));
}

}  // namespace benchtemp::models
