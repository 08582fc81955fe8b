#include "core/data_loader.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "tensor/optimizer.h"
#include "tensor/random.h"

namespace benchtemp::core {

const char* SettingName(Setting setting) {
  switch (setting) {
    case Setting::kTransductive:
      return "Transductive";
    case Setting::kInductive:
      return "Inductive";
    case Setting::kInductiveNewOld:
      return "Inductive New-Old";
    case Setting::kInductiveNewNew:
      return "Inductive New-New";
  }
  return "?";
}

std::string ValidateGraph(const graph::TemporalGraph& graph) {
  std::ostringstream err;
  if (graph.num_events() == 0) {
    return "graph has no events";
  }
  double prev_ts = -std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < graph.num_events(); ++i) {
    const graph::Interaction& e = graph.event(i);
    if (e.src < 0 || e.src >= graph.num_nodes() || e.dst < 0 ||
        e.dst >= graph.num_nodes()) {
      err << "event " << i << ": node id out of range [0, "
          << graph.num_nodes() << "): src=" << e.src << " dst=" << e.dst;
      return err.str();
    }
    if (!std::isfinite(e.ts)) {
      err << "event " << i << ": non-finite timestamp";
      return err.str();
    }
    if (e.ts < prev_ts) {
      err << "event " << i << ": timestamps not chronological (" << e.ts
          << " after " << prev_ts << "); sort the stream by time first";
      return err.str();
    }
    prev_ts = e.ts;
  }
  if (!tensor::AllFinite(graph.node_features())) {
    return "node features contain NaN / Inf";
  }
  if (!tensor::AllFinite(graph.edge_features())) {
    return "edge features contain NaN / Inf";
  }
  return "";
}

LinkPredictionSplit SplitLinkPrediction(const graph::TemporalGraph& graph,
                                        const SplitConfig& config) {
  const std::string invalid = ValidateGraph(graph);
  tensor::CheckOrDie(invalid.empty(),
                     ("SplitLinkPrediction: " + invalid).c_str());
  const int64_t n = graph.num_events();
  LinkPredictionSplit split;
  split.val_end = n - static_cast<int64_t>(config.test_fraction *
                                           static_cast<double>(n));
  split.train_end =
      split.val_end -
      static_cast<int64_t>(config.val_fraction * static_cast<double>(n));

  // Candidate unseen nodes: any node active in the val/test windows. This
  // guarantees that masked nodes actually occur at evaluation time.
  std::vector<int32_t> eval_nodes;
  {
    std::unordered_set<int32_t> seen;
    for (int64_t i = split.train_end; i < n; ++i) {
      const graph::Interaction& e = graph.event(i);
      if (seen.insert(e.src).second) eval_nodes.push_back(e.src);
      if (seen.insert(e.dst).second) eval_nodes.push_back(e.dst);
    }
  }
  std::sort(eval_nodes.begin(), eval_nodes.end());
  tensor::Rng rng(config.seed);
  // Fisher-Yates prefix shuffle to pick the masked subset.
  const int64_t target = std::min<int64_t>(
      static_cast<int64_t>(config.unseen_fraction *
                           static_cast<double>(graph.num_nodes())),
      static_cast<int64_t>(eval_nodes.size()));
  for (int64_t i = 0; i < target; ++i) {
    const int64_t j =
        i + rng.UniformInt(static_cast<int64_t>(eval_nodes.size()) - i);
    std::swap(eval_nodes[static_cast<size_t>(i)],
              eval_nodes[static_cast<size_t>(j)]);
  }
  split.is_unseen.assign(static_cast<size_t>(graph.num_nodes()), 0);
  for (int64_t i = 0; i < target; ++i) {
    split.is_unseen[static_cast<size_t>(eval_nodes[static_cast<size_t>(i)])] =
        1;
  }
  split.num_unseen_nodes = target;

  auto unseen = [&split](int32_t node) {
    return split.is_unseen[static_cast<size_t>(node)] != 0;
  };

  for (int64_t i = 0; i < split.train_end; ++i) {
    const graph::Interaction& e = graph.event(i);
    if (!unseen(e.src) && !unseen(e.dst)) split.train_events.push_back(i);
  }
  for (int64_t i = split.train_end; i < split.val_end; ++i) {
    split.val_events.push_back(i);
  }
  for (int64_t i = split.val_end; i < n; ++i) {
    const graph::Interaction& e = graph.event(i);
    split.test_events.push_back(i);
    const int unseen_count = (unseen(e.src) ? 1 : 0) + (unseen(e.dst) ? 1 : 0);
    if (unseen_count >= 1) split.test_inductive.push_back(i);
    if (unseen_count == 1) split.test_new_old.push_back(i);
    if (unseen_count == 2) split.test_new_new.push_back(i);
  }
  return split;
}

SetStats ComputeSetStats(const graph::TemporalGraph& graph,
                         const std::vector<int64_t>& events) {
  SetStats stats;
  std::unordered_set<int32_t> nodes;
  for (int64_t i : events) {
    const graph::Interaction& e = graph.event(i);
    nodes.insert(e.src);
    nodes.insert(e.dst);
  }
  stats.num_nodes = static_cast<int64_t>(nodes.size());
  stats.num_edges = static_cast<int64_t>(events.size());
  return stats;
}

NodeClassificationSplit SplitNodeClassification(
    const graph::TemporalGraph& graph, const SplitConfig& config) {
  const std::string invalid = ValidateGraph(graph);
  tensor::CheckOrDie(invalid.empty(),
                     ("SplitNodeClassification: " + invalid).c_str());
  const int64_t n = graph.num_events();
  const int64_t val_end = n - static_cast<int64_t>(config.test_fraction *
                                                   static_cast<double>(n));
  const int64_t train_end =
      val_end -
      static_cast<int64_t>(config.val_fraction * static_cast<double>(n));
  NodeClassificationSplit split;
  for (int64_t i = 0; i < train_end; ++i) split.train_events.push_back(i);
  for (int64_t i = train_end; i < val_end; ++i) split.val_events.push_back(i);
  for (int64_t i = val_end; i < n; ++i) split.test_events.push_back(i);
  return split;
}

}  // namespace benchtemp::core
