#ifndef BENCHTEMP_MODELS_WALK_BASE_H_
#define BENCHTEMP_MODELS_WALK_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/walks.h"
#include "models/model.h"
#include "tensor/modules.h"

namespace benchtemp::models {

/// The walk inputs of one pair-scoring call over (srcs, dsts, ts): the
/// call's `nodes` are the walk roots srcs ++ dsts at `ts` = ts ++ ts, and
/// pair i has one merged walk group and its anonymizer.
struct WalkPairSet : public PreparedCall {
  std::vector<std::vector<graph::TemporalWalk>> groups;
  std::vector<graph::CawAnonymizer> anonymizers;
};

/// Shared machinery of the temporal-walk models (CAWN, NeurTW,
/// MotifJoint): batched sampling of backward-in-time walks, set-based
/// anonymization, and an RNN encoder that processes *all* walks of a batch
/// step-synchronously (one GRU call per walk position instead of one per
/// walk). Each step projects its distinct edge rows and time deltas once,
/// and the first step runs the GRU from the zero state.
class WalkModel : public TgnnModel {
 public:
  WalkModel(const graph::TemporalGraph* graph, ModelConfig config);

  tensor::Var ScoreEdges(const std::vector<int32_t>& srcs,
                         const std::vector<int32_t>& dsts,
                         const std::vector<double>& ts) override;
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;
  int64_t StateBytes() const override;

  /// Pre-samples the positive, then the negative pair set. Pure: derives
  /// their walk streams from `seed` (SplitMix64 lanes 1 and 2) without
  /// touching the member RNG, so it is safe on a prefetch thread and
  /// bit-identical to inline preparation.
  std::unique_ptr<PreparedInputs> PrepareBatch(
      const Batch& batch, const std::vector<int32_t>& negatives,
      uint64_t seed) const override;

 protected:
  void ResetImpl() override;

  /// Hook for NeurTW's continuous evolution: transform the hidden state
  /// across the (normalized) time gaps `gaps` ([rows] entries) before the
  /// next walk step is consumed. Default: identity.
  virtual tensor::Var EvolveHidden(const tensor::Var& hidden,
                                   const std::vector<float>& gaps);

  /// Pooled walk encoding of each candidate pair (the representation the
  /// score head consumes) -> [n, embedding_dim]. Exposed so hybrid models
  /// can combine the motif encoding with other feature channels.
  tensor::Var EncodePairs(const std::vector<int32_t>& srcs,
                          const std::vector<int32_t>& dsts,
                          const std::vector<double>& ts);

  /// Encodes one group of walks per scoring unit and mean-pools ->
  /// [groups, embedding_dim]. `anonymizers[g]` encodes node identity
  /// relative to the unit's walk sets; `root_ts[g]` is the query time.
  tensor::Var EncodeWalkGroups(
      const std::vector<std::vector<graph::TemporalWalk>>& groups,
      const std::vector<graph::CawAnonymizer>& anonymizers,
      const std::vector<double>& root_ts);

  /// Samples the walks of `set->nodes` at `set->ts` (see WalkPairSet)
  /// keyed by `batch_seed` and builds the per-pair merged groups +
  /// anonymizers. Pure w.r.t. the model (const, no member RNG) — the shared
  /// workhorse of both the inline EncodePairs path and PrepareBatch.
  void BuildPairGroups(uint64_t batch_seed, WalkPairSet* set) const;

  std::unique_ptr<graph::TemporalWalkSampler> sampler_;
  tensor::TimeEncoder time_encoder_;
  tensor::Linear step_proj_;
  tensor::GruCell encoder_;
  tensor::Mlp score_head_;
  tensor::Linear embed_head_;
  /// Rough accounting of walk buffer bytes for the efficiency report.
  int64_t last_walk_bytes_ = 0;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_WALK_BASE_H_
