#include "graph/temporal_graph.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/numeric.h"

namespace benchtemp::graph {

void TemporalGraph::AddInteraction(int32_t src, int32_t dst, double ts,
                                   int32_t label) {
  Interaction event;
  event.src = src;
  event.dst = dst;
  event.ts = ts;
  event.edge_idx = tensor::NarrowId(static_cast<int64_t>(events_.size()),
                                    "TemporalGraph: edge index");
  event.label = label;
  events_.push_back(event);
  num_nodes_ = std::max(num_nodes_, std::max(src, dst) + 1);
}

void TemporalGraph::SortByTime() {
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const Interaction& a, const Interaction& b) { return a.ts < b.ts; });
}

void TemporalGraph::InitNodeFeatures(int64_t dim) {
  node_features_ = tensor::Tensor({num_nodes_, dim});
}

void TemporalGraph::SetEdgeFeatures(tensor::Tensor features) {
  tensor::CheckOrDie(features.rows() == num_events(),
                     "SetEdgeFeatures: row count must equal num_events");
  edge_features_ = std::move(features);
}

bool TemporalGraph::HasLabels() const {
  for (const Interaction& e : events_) {
    if (e.label >= 0) return true;
  }
  return false;
}

int32_t TemporalGraph::NumLabelClasses() const {
  int32_t max_label = -1;
  for (const Interaction& e : events_) max_label = std::max(max_label, e.label);
  return max_label + 1;
}

double TemporalGraph::MeanEventGap() const {
  if (num_events() < 2) return 1.0;
  const double span = events_.back().ts - events_.front().ts;
  return span > 0.0 ? span / static_cast<double>(num_events()) : 1.0;
}

TemporalGraph::Stats TemporalGraph::ComputeStats() const {
  Stats stats;
  stats.num_nodes = num_nodes_;
  stats.num_edges = num_events();
  if (num_nodes_ > 0) {
    stats.avg_degree =
        static_cast<double>(stats.num_edges) / static_cast<double>(num_nodes_);
  }
  std::unordered_set<int64_t> distinct;
  std::unordered_set<int64_t> timestamps;
  double t_min = 0.0, t_max = 0.0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const Interaction& e = events_[i];
    distinct.insert(static_cast<int64_t>(e.src) * num_nodes_ + e.dst);
    timestamps.insert(static_cast<int64_t>(std::llround(e.ts * 1e6)));
    if (i == 0) {
      t_min = t_max = e.ts;
    } else {
      t_min = std::min(t_min, e.ts);
      t_max = std::max(t_max, e.ts);
    }
  }
  stats.distinct_edges = static_cast<int64_t>(distinct.size());
  stats.distinct_timestamps = static_cast<int64_t>(timestamps.size());
  stats.time_span = t_max - t_min;
  if (num_nodes_ > 1) {
    stats.edge_density = 1e3 * static_cast<double>(stats.distinct_edges) /
                         (static_cast<double>(num_nodes_) *
                          static_cast<double>(num_nodes_ - 1));
  }
  if (stats.num_edges > 0) {
    stats.edge_reuse_ratio = 1.0 - static_cast<double>(stats.distinct_edges) /
                                       static_cast<double>(stats.num_edges);
  }
  return stats;
}

}  // namespace benchtemp::graph
