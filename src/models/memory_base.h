#ifndef BENCHTEMP_MODELS_MEMORY_BASE_H_
#define BENCHTEMP_MODELS_MEMORY_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "models/model.h"
#include "tensor/modules.h"

namespace benchtemp::models {

/// Shared machinery of the memory-based TGNNs (JODIE, DyRep, TGN, and the
/// memory halves of NAT / TeMP): a per-node memory table updated with the
/// *previous* batch's events at the start of each scoring step (the TGN
/// training scheme, which both trains the updater by backprop and avoids
/// leaking the edge being predicted into its own score).
///
/// Protocol per chronological batch B_i:
///   ScoreEdges(...)     --> ProcessPending() applies B_{i-1}'s updates,
///                           with gradients when training;
///   UpdateState(B_i)    --> B_i becomes the pending batch.
class MemoryModel : public TgnnModel {
 public:
  MemoryModel(const graph::TemporalGraph* graph, ModelConfig config);

  int64_t StateBytes() const override;

 protected:
  void ResetImpl() override;
  void UpdateStateImpl(const Batch& batch) override;

  /// One deduplicated pending update: `node`'s memory is refreshed from its
  /// latest event in the pending batch, where it interacted with `other`.
  struct MemoryEvent {
    int32_t node;
    int32_t other;
    double ts;
    int32_t edge_idx;
  };

  /// Model-specific memory updater: given the [n, dim] previous memory of
  /// the event nodes, produce their new memory. Runs under autograd when
  /// training so updater parameters learn.
  virtual tensor::Var ComputeMemoryUpdate(
      const std::vector<MemoryEvent>& events, const tensor::Var& prev_memory)
      = 0;

  /// Applies and clears the pending batch. Called by ScoreEdges overrides
  /// (and by UpdateState when scoring was skipped, e.g. state replay).
  void ProcessPending();

  /// Memory rows of `nodes` as a Var: one gather over the live (current
  /// step's) update stacked on a constant block of the other rows, so
  /// gradients of live rows reach the updater. At most three tape nodes,
  /// whatever the live share.
  tensor::Var GatherMemory(const std::vector<int32_t>& nodes) const;

  /// The same rows as a `Project` block: GatherMemory over the distinct
  /// nodes, so each memory row is projected once, and live rows still
  /// carry gradients.
  std::shared_ptr<const tensor::GatheredRows> MemoryRows(
      const std::vector<int32_t>& nodes) const;

  /// Raw (detached) memory row pointer; for heuristic consumers.
  const tensor::Tensor& memory() const { return memory_; }

  /// Time of each node's last memory refresh (0 before any event).
  double LastUpdate(int32_t node) const {
    return last_update_[static_cast<size_t>(node)];
  }

  /// Time-delta column t[i] - LastUpdate(nodes[i]) as a [n, 1] constant.
  tensor::Var DeltaTimeColumn(const std::vector<int32_t>& nodes,
                              const std::vector<double>& ts) const;

  /// The standard message of pending events as the column blocks
  /// [mem(node) | mem(other) | edge_feat | time_enc(dt)], msg_dim wide,
  /// which the updater cells project without concatenating.
  std::vector<tensor::ColBlock> BuildMessages(
      const std::vector<MemoryEvent>& events) const;
  int64_t MessageDim() const;

  /// Edge-feature rows for the given event indices.
  tensor::Var EdgeFeatureBlock(const std::vector<int32_t>& edge_idxs) const;

  tensor::TimeEncoder time_encoder_;

 private:
  tensor::Tensor memory_;  // [num_nodes, embedding_dim], detached store
  std::vector<double> last_update_;
  Batch pending_;
  /// Nodes of the current step's update, ascending: live_nodes_[r] is row
  /// r of live_var_.
  std::vector<int32_t> live_nodes_;
  tensor::Var live_var_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_MEMORY_BASE_H_
