#ifndef BENCHTEMP_CORE_DATA_LOADER_H_
#define BENCHTEMP_CORE_DATA_LOADER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"

namespace benchtemp::core {

/// DataLoader configuration (Section 3.2.1): chronological 70/15/15 split
/// and 10% unseen-node masking for the inductive settings.
struct SplitConfig {
  double val_fraction = 0.15;
  double test_fraction = 0.15;
  double unseen_fraction = 0.10;
  uint64_t seed = 2020;
};

/// Per-set statistics as reported in the paper's Table 6/7.
struct SetStats {
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
};

/// The four evaluation settings of the link prediction task.
enum class Setting {
  kTransductive,
  kInductive,
  kInductiveNewOld,
  kInductiveNewNew,
};

/// Human-readable setting name ("Transductive", ...).
const char* SettingName(Setting setting);

/// Input validation for user-supplied datasets, run by every Split function
/// before touching the event stream. Checks, in order:
///  * at least one event;
///  * every endpoint id is inside [0, num_nodes);
///  * every timestamp is finite and the stream is non-decreasing in time;
///  * node and edge feature tensors contain no NaN / Inf.
/// Returns "" for a well-formed graph, otherwise a one-line description of
/// the first problem (with the offending event index).
std::string ValidateGraph(const graph::TemporalGraph& graph);

/// Output of the link-prediction DataLoader: event-index lists into the
/// (chronologically sorted) source graph for every train/val/test variant.
///
/// Invariants (tested):
///  * train/val/test windows are contiguous and chronological;
///  * `train_events` contains no unseen-node endpoint;
///  * inductive sets select only edges with >= 1 unseen endpoint;
///  * NewOld ∪ NewNew == Inductive and NewOld ∩ NewNew == ∅.
struct LinkPredictionSplit {
  /// Boundaries of the chronological windows: events [0, train_end) are the
  /// train window, [train_end, val_end) validation, [val_end, N) test.
  int64_t train_end = 0;
  int64_t val_end = 0;

  /// is_unseen[node] == 1 when the node was masked out of training.
  std::vector<uint8_t> is_unseen;

  /// Training events (train window minus unseen-node edges).
  std::vector<int64_t> train_events;
  /// Transductive validation / test sets (all window events).
  std::vector<int64_t> val_events;
  std::vector<int64_t> test_events;
  /// Inductive filtrations of the test set (Section 3.2.1 "filtering
  /// edges"); validation is transductive only.
  std::vector<int64_t> test_inductive;
  std::vector<int64_t> test_new_old;
  std::vector<int64_t> test_new_new;

  /// Number of masked (unseen) nodes.
  int64_t num_unseen_nodes = 0;
};

/// Splits `graph` for the link prediction task. The graph must be
/// chronologically sorted. Unseen nodes are drawn (seeded) from the nodes
/// active in the validation/test windows, matching the reference pipeline.
LinkPredictionSplit SplitLinkPrediction(const graph::TemporalGraph& graph,
                                        const SplitConfig& config);

/// Computes Table-6-style statistics (#distinct nodes, #edges) of an event
/// subset.
SetStats ComputeSetStats(const graph::TemporalGraph& graph,
                         const std::vector<int64_t>& events);

/// Node-classification split (Section 3.2.2): plain chronological 70/15/15
/// over all events, no masking, no filtering.
struct NodeClassificationSplit {
  std::vector<int64_t> train_events;
  std::vector<int64_t> val_events;
  std::vector<int64_t> test_events;
};

NodeClassificationSplit SplitNodeClassification(
    const graph::TemporalGraph& graph, const SplitConfig& config);

}  // namespace benchtemp::core

#endif  // BENCHTEMP_CORE_DATA_LOADER_H_
