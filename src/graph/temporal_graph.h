#ifndef BENCHTEMP_GRAPH_TEMPORAL_GRAPH_H_
#define BENCHTEMP_GRAPH_TEMPORAL_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace benchtemp::graph {

/// One temporal interaction I_r = (u_r, i_r, t_r, e_r): an edge between a
/// source and destination node at a timestamp, carrying an edge-feature row
/// and (optionally) a dynamic label of the source node at that instant.
struct Interaction {
  int32_t src = 0;
  int32_t dst = 0;
  double ts = 0.0;
  /// Row index into the owning graph's edge-feature matrix.
  int32_t edge_idx = 0;
  /// Dynamic node label attached to the event (e.g. "user banned after this
  /// edit"); -1 when the dataset has no labels.
  int32_t label = -1;
};

/// A temporal graph as an ordered sequence of interactions plus node / edge
/// feature matrices. Events are sorted by non-decreasing timestamp (the
/// DataLoader enforces this before splitting).
class TemporalGraph {
 public:
  TemporalGraph() = default;

  /// Appends an interaction. `edge_idx` is assigned automatically.
  void AddInteraction(int32_t src, int32_t dst, double ts,
                      int32_t label = -1);

  /// Sorts events chronologically (stable, so same-timestamp order is kept).
  void SortByTime();

  int64_t num_events() const {
    return static_cast<int64_t>(events_.size());
  }
  /// One past the maximum node id seen.
  int32_t num_nodes() const { return num_nodes_; }

  const Interaction& event(int64_t i) const {
    return events_[static_cast<size_t>(i)];
  }
  const std::vector<Interaction>& events() const { return events_; }

  /// Node features, [num_nodes, node_feature_dim]. The paper's benchmark
  /// construction zero-initializes these at a standard dimension (172).
  const tensor::Tensor& node_features() const { return node_features_; }
  tensor::Tensor& mutable_node_features() { return node_features_; }
  /// Edge features, [num_events, edge_feature_dim].
  const tensor::Tensor& edge_features() const { return edge_features_; }
  tensor::Tensor& mutable_edge_features() { return edge_features_; }

  int64_t node_feature_dim() const {
    return node_features_.rank() == 2 ? node_features_.shape()[1] : 0;
  }
  int64_t edge_feature_dim() const {
    return edge_features_.rank() == 2 ? edge_features_.shape()[1] : 0;
  }

  /// Allocates zero node features at the given dimension (the paper's
  /// "node feature initialization" standardization step, default 172).
  void InitNodeFeatures(int64_t dim);
  /// Replaces edge features; must have num_events rows.
  void SetEdgeFeatures(tensor::Tensor features);

  /// True if any event carries a label >= 0.
  bool HasLabels() const;
  /// Number of distinct non-negative labels (max label + 1).
  int32_t NumLabelClasses() const;

  /// The graph's time scale: its span over its event count, or 1.0 when it
  /// has fewer than 2 events or a zero span (no two of its events are then
  /// apart in time).
  double MeanEventGap() const;

  /// Dataset statistics of the kind reported in the paper's Table 2.
  struct Stats {
    int64_t num_nodes = 0;
    int64_t num_edges = 0;
    double avg_degree = 0.0;       // #edges / #nodes
    double edge_density = 0.0;     // distinct edges / possible pairs (x1e3)
    int64_t distinct_edges = 0;
    double time_span = 0.0;
    int64_t distinct_timestamps = 0;
    double edge_reuse_ratio = 0.0;  // 1 - distinct/total
  };
  Stats ComputeStats() const;

  std::string name;

 private:
  std::vector<Interaction> events_;
  int32_t num_nodes_ = 0;
  tensor::Tensor node_features_;
  tensor::Tensor edge_features_;
};

}  // namespace benchtemp::graph

#endif  // BENCHTEMP_GRAPH_TEMPORAL_GRAPH_H_
