#include "models/walk_base.h"

namespace benchtemp::models {

using graph::CawAnonymizer;
using graph::TemporalWalk;
using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

WalkModel::WalkModel(const graph::TemporalGraph* graph, ModelConfig config)
    : TgnnModel(graph, config),
      time_encoder_(config.time_dim),
      step_proj_(2 * (config.walk_length + 1) + config.time_dim +
                     graph->edge_feature_dim(),
                 config.embedding_dim, rng_),
      encoder_(config.embedding_dim, config.embedding_dim, rng_),
      score_head_({config.embedding_dim, config.embedding_dim, 1}, rng_),
      embed_head_(config.embedding_dim, config.embedding_dim, rng_) {
  Own(time_encoder_);
  Own(step_proj_);
  Own(encoder_);
  Own(score_head_);
  Own(embed_head_);
}

void WalkModel::ResetImpl() {
  ClearStatus();
  last_walk_bytes_ = 0;
}

Var WalkModel::EvolveHidden(const tensor::Var& hidden,
                            const std::vector<float>& gaps) {
  (void)gaps;
  return hidden;
}

Var WalkModel::EncodeWalkGroups(
    const std::vector<std::vector<TemporalWalk>>& groups,
    const std::vector<CawAnonymizer>& anonymizers,
    const std::vector<double>& root_ts) {
  const int64_t num_groups = static_cast<int64_t>(groups.size());
  tensor::CheckOrDie(num_groups > 0, "EncodeWalkGroups: no groups");
  const int64_t walks_per_group =
      static_cast<int64_t>(groups[0].size());
  const int64_t rows = num_groups * walks_per_group;
  const int64_t steps = config_.walk_length + 1;
  const int64_t anon_dim = 2 * (config_.walk_length + 1);
  const Tensor& edge_features = graph_->edge_features();
  const double time_scale = graph_->MeanEventGap();

  last_walk_bytes_ = rows * steps *
                     static_cast<int64_t>(sizeof(graph::WalkStep));

  // Null is the GRU's zero state: every walk starts at its root, so none
  // has ended at step 0 and its output is the first hidden state.
  Var hidden;
  for (int64_t s = 0; s < steps; ++s) {
    Tensor anon({rows, anon_dim});
    // -1 (a root step, or a walk that already ended) reads a zero row.
    std::vector<int32_t> edge_ids(static_cast<size_t>(rows), -1);
    std::vector<float> dts(static_cast<size_t>(rows), 0.0f);
    std::vector<float> gaps(static_cast<size_t>(rows), 0.0f);
    // 1 for walks that already ended: they keep their previous state.
    Tensor ended = Tensor::Full({rows, 1}, 1.0f);
    for (int64_t g = 0; g < num_groups; ++g) {
      const auto& group = groups[static_cast<size_t>(g)];
      tensor::CheckOrDie(
          static_cast<int64_t>(group.size()) == walks_per_group,
          "EncodeWalkGroups: ragged group");
      for (int64_t w = 0; w < walks_per_group; ++w) {
        const TemporalWalk& walk = group[static_cast<size_t>(w)];
        const int64_t row = g * walks_per_group + w;
        tensor::CheckOrDie(!walk.empty(),
                           "EncodeWalkGroups: walk without a root");
        if (s >= static_cast<int64_t>(walk.size())) continue;  // ended
        const graph::WalkStep& step = walk[static_cast<size_t>(s)];
        ended.at(row) = 0.0f;
        const auto feature =
            anonymizers[static_cast<size_t>(g)].Encode(step.node);
        for (int64_t c = 0; c < anon_dim; ++c) {
          anon.at(row, c) = feature[static_cast<size_t>(c)];
        }
        edge_ids[static_cast<size_t>(row)] = step.edge_idx;
        dts[static_cast<size_t>(row)] = static_cast<float>(
            (root_ts[static_cast<size_t>(g)] - step.ts) / time_scale);
        if (s > 0) {
          gaps[static_cast<size_t>(row)] = static_cast<float>(
              (walk[static_cast<size_t>(s - 1)].ts - step.ts) / time_scale);
        }
      }
    }
    // Distinct edge rows and deltas are projected once each.
    Var x = Relu(step_proj_.Forward({Constant(std::move(anon)),
                                     time_encoder_.EncodeRows(dts),
                                     tensor::Rows(edge_features, edge_ids)}));
    if (hidden == nullptr) {
      hidden = encoder_.Forward({x}, nullptr);
      continue;
    }
    hidden = EvolveHidden(hidden, gaps);
    Var next = encoder_.Forward({x}, hidden);
    hidden = Lerp(next, hidden, Constant(std::move(ended)));
  }
  // Mean-pool each group's walk encodings.
  Tensor pool_weights({num_groups, walks_per_group});
  pool_weights.Fill(1.0f / static_cast<float>(walks_per_group));
  return BatchWeightedSum(pool_weights, hidden, walks_per_group);
}

namespace {

/// `a` followed by `b`.
template <typename T>
std::vector<T> Concat(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out(a);
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

void WalkModel::BuildPairGroups(uint64_t batch_seed, WalkPairSet* set) const {
  tensor::CheckOrDie(finder_ != nullptr, "WalkModel: neighbor finder not set");
  const size_t n = set->nodes.size() / 2;
  auto sampled =
      sampler_->SampleWalkBatch(*finder_, set->nodes, set->ts,
                                config_.num_walks, config_.walk_length,
                                batch_seed);
  set->groups.reserve(n);
  set->anonymizers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<TemporalWalk>& walks_u = sampled[i];
    std::vector<TemporalWalk>& walks_v = sampled[n + i];
    set->anonymizers.emplace_back(walks_u, walks_v, config_.walk_length);
    std::vector<TemporalWalk> group = std::move(walks_u);
    for (auto& w : walks_v) group.push_back(std::move(w));
    set->groups.push_back(std::move(group));
  }
}

std::unique_ptr<PreparedInputs> WalkModel::PrepareBatch(
    const Batch& batch, const std::vector<int32_t>& negatives,
    uint64_t seed) const {
  auto out = std::make_unique<PreparedInputs>();
  uint64_t lane = 1;
  for (const std::vector<int32_t>* dsts : {&batch.dsts, &negatives}) {
    auto set = std::make_unique<WalkPairSet>();
    set->nodes = Concat(batch.srcs, *dsts);
    set->ts = Concat(batch.ts, batch.ts);
    BuildPairGroups(tensor::SplitMix64(seed, lane++), set.get());
    out->calls.push_back(std::move(set));
  }
  return out;
}

Var WalkModel::EncodePairs(const std::vector<int32_t>& srcs,
                           const std::vector<int32_t>& dsts,
                           const std::vector<double>& ts) {
  WalkPairSet inline_set;
  inline_set.nodes = Concat(srcs, dsts);
  inline_set.ts = Concat(ts, ts);
  // Pipelined path: the next prepared pair set (pos, then neg). Both sync
  // and async modes install the same prepared inputs, so every walk is
  // mode-independent.
  const PreparedCall* call = NextPreparedCall(inline_set.nodes, inline_set.ts);
  if (call != nullptr) {
    const auto& set = static_cast<const WalkPairSet&>(*call);
    return EncodeWalkGroups(set.groups, set.anonymizers, ts);
  }
  // Inline path (evaluation, or a call outside the trainer's prepared
  // window): one batch seed drawn serially keeps the model's RNG stream
  // deterministic; the batch sampler derives per-root streams from it so
  // the walks are identical at any thread count.
  BuildPairGroups(rng_.engine()(), &inline_set);
  return EncodeWalkGroups(inline_set.groups, inline_set.anonymizers, ts);
}

Var WalkModel::ScoreEdges(const std::vector<int32_t>& srcs,
                          const std::vector<int32_t>& dsts,
                          const std::vector<double>& ts) {
  return score_head_.Forward({EncodePairs(srcs, dsts, ts)});
}

Var WalkModel::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                 const std::vector<double>& ts) {
  tensor::CheckOrDie(finder_ != nullptr, "WalkModel: neighbor finder not set");
  const size_t n = nodes.size();
  const uint64_t batch_seed = rng_.engine()();
  auto sampled = sampler_->SampleWalkBatch(
      *finder_, nodes, ts, config_.num_walks, config_.walk_length, batch_seed);
  std::vector<std::vector<TemporalWalk>> groups;
  std::vector<CawAnonymizer> anonymizers;
  groups.reserve(n);
  anonymizers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<TemporalWalk>& walks = sampled[i];
    anonymizers.emplace_back(walks, walks, config_.walk_length);
    groups.push_back(std::move(walks));
  }
  Var pooled = EncodeWalkGroups(groups, anonymizers, ts);
  return embed_head_.Forward({pooled});
}

int64_t WalkModel::StateBytes() const { return last_walk_bytes_; }

}  // namespace benchtemp::models
