#include "models/memory_base.h"

#include <algorithm>

namespace benchtemp::models {

using tensor::ConcatCols;
using tensor::ConcatRows;
using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

MemoryModel::MemoryModel(const graph::TemporalGraph* graph,
                         ModelConfig config)
    : TgnnModel(graph, config), time_encoder_(config.time_dim, rng_) {
  memory_ = Tensor({graph->num_nodes(), config_.embedding_dim});
  last_update_.assign(static_cast<size_t>(graph->num_nodes()), 0.0);
}

void MemoryModel::ResetImpl() {
  memory_.Fill(0.0f);
  std::fill(last_update_.begin(), last_update_.end(), 0.0);
  pending_ = Batch();
  live_rows_.clear();
  live_var_.reset();
}

void MemoryModel::UpdateStateImpl(const Batch& batch) {
  // If scoring was skipped this step (pure state replay), apply the pending
  // updates first so no event is lost.
  ProcessPending();
  pending_ = batch;
  // The previous step's live autograd rows are now stale; drop them so the
  // graphs do not chain across optimizer steps.
  live_rows_.clear();
  live_var_.reset();
}

void MemoryModel::ProcessPending() {
  if (pending_.size() == 0) return;
  // Deduplicate: each endpoint keeps its most recent event in the batch
  // (TGN's "last message" aggregator).
  std::unordered_map<int32_t, MemoryEvent> latest;
  for (int64_t i = 0; i < pending_.size(); ++i) {
    const MemoryEvent src_event{pending_.srcs[static_cast<size_t>(i)],
                                pending_.dsts[static_cast<size_t>(i)],
                                pending_.ts[static_cast<size_t>(i)],
                                pending_.edge_idxs[static_cast<size_t>(i)]};
    const MemoryEvent dst_event{src_event.other, src_event.node, src_event.ts,
                                src_event.edge_idx};
    latest[src_event.node] = src_event;
    latest[dst_event.node] = dst_event;
  }
  // Drain the unordered dedup map in node order: unordered_map iteration
  // order is implementation-defined, and the event order decides batch row
  // layout (and therefore float accumulation order downstream).
  std::vector<MemoryEvent> events;
  events.reserve(latest.size());
  // btlint: allow(unordered-drain) — sorted immediately below.
  for (const auto& entry : latest) events.push_back(entry.second);
  std::sort(events.begin(), events.end(),
            [](const MemoryEvent& a, const MemoryEvent& b) {
              return a.node < b.node;
            });
  pending_ = Batch();

  Var prev = GatherMemory([&events] {
    std::vector<int32_t> nodes;
    nodes.reserve(events.size());
    for (const MemoryEvent& e : events) nodes.push_back(e.node);
    return nodes;
  }());
  Var updated = ComputeMemoryUpdate(events, prev);
  tensor::CheckOrDie(
      updated->value.rows() == static_cast<int64_t>(events.size()) &&
          updated->value.cols() == config_.embedding_dim,
      "ComputeMemoryUpdate: wrong output shape");

  // Write the new values into the detached store and remember the live rows
  // so the subsequent scoring step backpropagates into the updater.
  live_rows_.clear();
  const int64_t d = config_.embedding_dim;
  for (size_t i = 0; i < events.size(); ++i) {
    const MemoryEvent& e = events[i];
    for (int64_t c = 0; c < d; ++c) {
      memory_.at(e.node, c) = updated->value.at(static_cast<int64_t>(i), c);
    }
    last_update_[static_cast<size_t>(e.node)] = e.ts;
    live_rows_[e.node] = static_cast<int64_t>(i);
  }
  live_var_ = training_ ? updated : nullptr;
}

Var MemoryModel::GatherMemory(const std::vector<int32_t>& nodes) const {
  const int64_t d = config_.embedding_dim;
  const int64_t n = static_cast<int64_t>(nodes.size());
  // Fast path: no live rows among the requested nodes.
  bool any_live = false;
  if (live_var_ != nullptr) {
    for (int32_t node : nodes) {
      if (live_rows_.count(node) != 0) {
        any_live = true;
        break;
      }
    }
  }
  if (!any_live) {
    Tensor block({n, d});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < d; ++c) {
        block.at(i, c) = memory_.at(nodes[static_cast<size_t>(i)], c);
      }
    }
    return Constant(std::move(block));
  }
  // Mixed path: stitch constant rows and live autograd rows. Consecutive
  // constant rows are grouped to keep the concat fan-in small.
  std::vector<Var> parts;
  Tensor run({0, d});
  std::vector<float> run_data;
  int64_t run_rows = 0;
  auto flush_run = [&]() {
    if (run_rows == 0) return;
    parts.push_back(Constant(
        Tensor::FromVector({run_rows, d}, std::move(run_data))));
    run_data = {};
    run_rows = 0;
  };
  for (int64_t i = 0; i < n; ++i) {
    const int32_t node = nodes[static_cast<size_t>(i)];
    auto it = live_rows_.find(node);
    if (it != live_rows_.end()) {
      flush_run();
      parts.push_back(SliceRows(live_var_, it->second, 1));
    } else {
      for (int64_t c = 0; c < d; ++c)
        run_data.push_back(memory_.at(node, c));
      ++run_rows;
    }
  }
  flush_run();
  return parts.size() == 1 ? parts[0] : ConcatRows(parts);
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
  const Tensor& features = graph_->edge_features();
  const int64_t d = graph_->edge_feature_dim();
  Tensor block({static_cast<int64_t>(edge_idxs.size()), d});
  for (size_t i = 0; i < edge_idxs.size(); ++i) {
    for (int64_t c = 0; c < d; ++c) {
      block.at(static_cast<int64_t>(i), c) = features.at(edge_idxs[i], c);
    }
  }
  return Constant(std::move(block));
}

int64_t MemoryModel::MessageDim() const {
  return 2 * config_.embedding_dim + graph_->edge_feature_dim() +
         config_.time_dim;
}

Var MemoryModel::BuildMessages(const std::vector<MemoryEvent>& events) const {
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
  const int64_t d = config_.embedding_dim;
  Tensor mem_nodes({static_cast<int64_t>(events.size()), d});
  Tensor mem_others({static_cast<int64_t>(events.size()), d});
  for (size_t i = 0; i < events.size(); ++i) {
    for (int64_t c = 0; c < d; ++c) {
      mem_nodes.at(static_cast<int64_t>(i), c) = memory_.at(nodes[i], c);
      mem_others.at(static_cast<int64_t>(i), c) = memory_.at(others[i], c);
    }
  }
  return ConcatCols({Constant(std::move(mem_nodes)),
                     Constant(std::move(mem_others)),
                     EdgeFeatureBlock(edge_idxs), time_encoder_.Encode(dts)});
}

std::vector<Var> MemoryModel::Parameters() const {
  std::vector<Var> params = time_encoder_.Parameters();
  for (const Var& p : UpdaterParameters()) params.push_back(p);
  if (predictor_ != nullptr) {
    for (const Var& p : predictor_->Parameters()) params.push_back(p);
  }
  return params;
}

int64_t MemoryModel::StateBytes() const {
  return memory_.size() * static_cast<int64_t>(sizeof(float)) +
         static_cast<int64_t>(last_update_.size() * sizeof(double));
}

}  // namespace benchtemp::models
