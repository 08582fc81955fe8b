#include "models/memory_base.h"

#include <algorithm>

#include "tensor/distinct.h"

namespace benchtemp::models {

using tensor::ConcatRows;
using tensor::Constant;
using tensor::GatherRows;
using tensor::Tensor;
using tensor::Var;

namespace {

/// Rows `rows` of `table` ([N, w]) copied into a new [rows.size(), w]
/// tensor. A rank-0 (absent) table yields zero-width rows.
Tensor CopyRows(const Tensor& table, const std::vector<int32_t>& rows) {
  const int64_t w = table.rank() == 2 ? table.cols() : 0;
  Tensor block({static_cast<int64_t>(rows.size()), w});
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy_n(table.data() + static_cast<int64_t>(rows[i]) * w, w,
                block.data() + static_cast<int64_t>(i) * w);
  }
  return block;
}

}  // namespace

MemoryModel::MemoryModel(const graph::TemporalGraph* graph,
                         ModelConfig config)
    : TgnnModel(graph, config), time_encoder_(config.time_dim) {
  Own(time_encoder_);
  memory_ = Tensor({graph->num_nodes(), config_.embedding_dim});
  last_update_.assign(static_cast<size_t>(graph->num_nodes()), 0.0);
}

void MemoryModel::ResetImpl() {
  memory_.Fill(0.0f);
  std::fill(last_update_.begin(), last_update_.end(), 0.0);
  pending_ = Batch();
  live_nodes_.clear();
  live_var_.reset();
}

void MemoryModel::UpdateStateImpl(const Batch& batch) {
  // If scoring was skipped this step (pure state replay), apply the pending
  // updates first so no event is lost.
  ProcessPending();
  pending_ = batch;
  // The previous step's live autograd rows are now stale; drop them so the
  // graphs do not chain across optimizer steps.
  live_nodes_.clear();
  live_var_.reset();
}

void MemoryModel::ProcessPending() {
  if (pending_.size() == 0) return;
  // Each node keeps its most recent event in the batch (TGN's "last
  // message" aggregator): endpoint k of the 2n is the source (k even) or
  // the destination (k odd) of event k / 2, and a node's last endpoint
  // wins. The events are then laid out in node order, which decides the
  // batch row layout (and therefore float accumulation order downstream).
  std::vector<int32_t> endpoints;
  endpoints.reserve(2 * pending_.srcs.size());
  for (size_t i = 0; i < pending_.srcs.size(); ++i) {
    endpoints.push_back(pending_.srcs[i]);
    endpoints.push_back(pending_.dsts[i]);
  }
  const tensor::Distinct<int32_t> distinct = tensor::Dedup(endpoints);
  std::vector<MemoryEvent> events(distinct.values.size());
  for (size_t k = 0; k < endpoints.size(); ++k) {
    events[static_cast<size_t>(distinct.slot[k])] = {
        endpoints[k], endpoints[k ^ 1], pending_.ts[k / 2],
        pending_.edge_idxs[k / 2]};
  }
  std::sort(events.begin(), events.end(),
            [](const MemoryEvent& a, const MemoryEvent& b) {
              return a.node < b.node;
            });
  pending_ = Batch();

  std::vector<int32_t> nodes;
  nodes.reserve(events.size());
  for (const MemoryEvent& e : events) nodes.push_back(e.node);
  Var prev = GatherMemory(nodes);
  Var updated = ComputeMemoryUpdate(events, prev);
  tensor::CheckOrDie(
      updated->value.rows() == static_cast<int64_t>(events.size()) &&
          updated->value.cols() == config_.embedding_dim,
      "ComputeMemoryUpdate: wrong output shape");

  // Write the new values into the detached store and remember the live rows
  // so the subsequent scoring step backpropagates into the updater.
  const int64_t d = config_.embedding_dim;
  for (size_t i = 0; i < events.size(); ++i) {
    const MemoryEvent& e = events[i];
    for (int64_t c = 0; c < d; ++c) {
      memory_.at(e.node, c) = updated->value.at(static_cast<int64_t>(i), c);
    }
    last_update_[static_cast<size_t>(e.node)] = e.ts;
  }
  live_nodes_ = std::move(nodes);
  live_var_ = training_ ? updated : nullptr;
}

Var MemoryModel::GatherMemory(const std::vector<int32_t>& nodes) const {
  if (live_var_ == nullptr) return Constant(CopyRows(memory_, nodes));
  // A live row indexes live_var_; every other row indexes the stale block
  // stacked under it. Values match the store either way (ProcessPending
  // wrote the live rows into it), but only live rows carry gradients.
  const int64_t num_live = live_var_->value.rows();
  std::vector<int32_t> stale;
  std::vector<int32_t> index;
  index.reserve(nodes.size());
  for (const int32_t node : nodes) {
    const auto it =
        std::lower_bound(live_nodes_.begin(), live_nodes_.end(), node);
    if (it != live_nodes_.end() && *it == node) {
      index.push_back(
          tensor::NarrowId(it - live_nodes_.begin(), "GatherMemory: row"));
    } else {
      index.push_back(
          tensor::NarrowId(num_live + std::ssize(stale), "GatherMemory: row"));
      stale.push_back(node);
    }
  }
  if (stale.size() == nodes.size()) return Constant(CopyRows(memory_, stale));
  if (stale.empty()) return GatherRows(live_var_, index);
  return GatherRows(
      ConcatRows({live_var_, Constant(CopyRows(memory_, stale))}), index);
}

std::shared_ptr<const tensor::GatheredRows> MemoryModel::MemoryRows(
    const std::vector<int32_t>& nodes) const {
  tensor::Distinct<int32_t> distinct = tensor::Dedup(nodes);
  return tensor::RowsOf(GatherMemory(distinct.values),
                        std::move(distinct.slot));
}

Var MemoryModel::DeltaTimeColumn(const std::vector<int32_t>& nodes,
                                 const std::vector<double>& ts) const {
  Tensor column({static_cast<int64_t>(nodes.size()), 1});
  for (size_t i = 0; i < nodes.size(); ++i) {
    column.at(static_cast<int64_t>(i)) = static_cast<float>(
        ts[i] - last_update_[static_cast<size_t>(nodes[i])]);
  }
  return Constant(std::move(column));
}

Var MemoryModel::EdgeFeatureBlock(
    const std::vector<int32_t>& edge_idxs) const {
  return Constant(CopyRows(graph_->edge_features(), edge_idxs));
}

int64_t MemoryModel::MessageDim() const {
  return 2 * config_.embedding_dim + graph_->edge_feature_dim() +
         config_.time_dim;
}

std::vector<tensor::ColBlock> MemoryModel::BuildMessages(
    const std::vector<MemoryEvent>& events) const {
  std::vector<int32_t> nodes, others, edge_idxs;
  std::vector<float> dts;
  nodes.reserve(events.size());
  for (const MemoryEvent& e : events) {
    nodes.push_back(e.node);
    others.push_back(e.other);
    edge_idxs.push_back(e.edge_idx);
    dts.push_back(static_cast<float>(
        e.ts - last_update_[static_cast<size_t>(e.node)]));
  }
  // Message inputs use the *stored* (detached) memory; gradients reach the
  // updater through the update itself, a one-step truncation of BPTT.
  return {Constant(CopyRows(memory_, nodes)),
          Constant(CopyRows(memory_, others)), EdgeFeatureBlock(edge_idxs),
          time_encoder_.Encode(dts)};
}

int64_t MemoryModel::StateBytes() const {
  return memory_.size() * static_cast<int64_t>(sizeof(float)) +
         static_cast<int64_t>(last_update_.size() * sizeof(double));
}

}  // namespace benchtemp::models
