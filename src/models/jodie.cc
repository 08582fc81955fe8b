#include "models/jodie.h"

namespace benchtemp::models {

using tensor::Tensor;
using tensor::Var;

Jodie::Jodie(const graph::TemporalGraph* graph, ModelConfig config,
             int32_t num_users)
    : MemoryModel(graph, config),
      num_users_(num_users),
      user_rnn_(MessageDim(), config_.embedding_dim, rng_),
      item_rnn_(MessageDim(), config_.embedding_dim, rng_),
      projection_(tensor::Parameter(
          Tensor::Full({1, config_.embedding_dim}, 0.01f))),
      output_(config_.embedding_dim, config_.embedding_dim, rng_) {
  Own(user_rnn_);
  Own(item_rnn_);
  Own(projection_);
  Own(output_);
  InitPredictor(config_.embedding_dim, config_.embedding_dim, rng_);
}

Var Jodie::ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                               const tensor::Var& prev_memory) {
  const std::vector<tensor::ColBlock> messages = BuildMessages(events);
  // Two RNN paths: route each event through the user or item RNN depending
  // on which side of the bipartite split the node lives on, then select
  // rows with a 0/1 weight (both paths run batched; the weight picks one).
  Var user_update = user_rnn_.Forward(messages, prev_memory);
  if (num_users_ <= 0) return user_update;
  Var item_update = item_rnn_.Forward(messages, prev_memory);
  Tensor is_item({static_cast<int64_t>(events.size()), 1});
  for (size_t i = 0; i < events.size(); ++i) {
    is_item.at(static_cast<int64_t>(i)) =
        events[i].node < num_users_ ? 0.0f : 1.0f;
  }
  return Lerp(user_update, item_update, tensor::Constant(std::move(is_item)));
}

Var Jodie::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                             const std::vector<double>& ts) {
  ProcessPending();
  Var memory = GatherMemory(nodes);
  // Projection: e = (1 + dt * w) ⊙ m. dt is normalized by the graph's mean
  // inter-event gap so the drift magnitude is scale-free.
  const double mean_gap = graph_->MeanEventGap();
  Var dt = DeltaTimeColumn(nodes, ts);
  Var dt_scaled = ScalarMul(dt, static_cast<float>(1.0 / (mean_gap * 100.0)));
  Var ones = tensor::Constant(Tensor::Ones({1, config_.embedding_dim}));
  Var drift = Project({dt_scaled}, projection_, ones);
  return output_.Forward({Mul(memory, drift)});
}

}  // namespace benchtemp::models
