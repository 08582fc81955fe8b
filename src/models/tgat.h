#ifndef BENCHTEMP_MODELS_TGAT_H_
#define BENCHTEMP_MODELS_TGAT_H_

#include <memory>
#include <string>
#include <vector>

#include "models/model.h"
#include "tensor/modules.h"

namespace benchtemp::models {

/// Prefetched TGAT inputs of one training batch: every neighborhood the
/// batch's three embedding trees (srcs, dsts, negatives; both ScoreEdges
/// calls share the source embeddings) will request, in exact depth-first
/// consumption order, drained through `cursor`.
struct TgatPreparedInputs : public PreparedInputs {
  std::vector<graph::SampledNeighborhood> fifo;
  /// Consumption cursor; mutated by the (single) training thread while the
  /// trainer holds the prepared inputs as const.
  mutable size_t cursor = 0;
};

/// TGAT (Xu et al., ICLR 2020): stateless stacked temporal self-attention.
/// Layer l embeds a node at time t by attending over its sampled temporal
/// neighbors' layer-(l-1) embeddings, concatenated with edge features and a
/// Bochner time encoding. No memory: everything is recomputed per query,
/// which also makes TGAT the natural inductive baseline.
///
/// When `config.tgat_time_window > 0`, neighbor lookups are restricted to
/// (t - window, t). If an entire batch of queries finds no neighbor in the
/// window the model flags ModelStatus::kRuntimeError — reproducing the
/// paper's "*" failure of TGAT on UNTrade ("may not find suitable neighbors
/// within some given time intervals").
class Tgat : public TgnnModel {
 public:
  Tgat(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "TGAT"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;
  std::vector<tensor::Var> Parameters() const override;

  /// Pre-samples every neighborhood the batch's scoring calls will request.
  /// Pure: draws from a local RNG keyed by `seed` (SplitMix64 lane 3), never
  /// the member RNG, so it is safe on a prefetch thread and bit-identical to
  /// inline preparation.
  std::unique_ptr<PreparedInputs> PrepareBatch(
      const Batch& batch, const std::vector<int32_t>& negatives,
      uint64_t seed) const override;

 protected:
  void ResetImpl() override;

 private:
  /// Recursive layered embedding; layer 0 returns projected node features.
  tensor::Var EmbedLayer(const std::vector<int32_t>& nodes,
                         const std::vector<double>& ts, int64_t layer);

  /// Appends the neighborhoods of EmbedLayer(nodes, ts, layer)'s recursion
  /// in depth-first consumption order: this layer's sample, then the self
  /// subtree, then the neighbor subtree.
  void BuildSampleTree(const std::vector<int32_t>& nodes,
                       const std::vector<double>& ts, int64_t layer,
                       tensor::Rng& rng,
                       std::vector<graph::SampledNeighborhood>* out) const;

  tensor::Linear feature_proj_;
  tensor::TimeEncoder time_encoder_;
  std::vector<std::unique_ptr<tensor::MultiHeadAttention>> layers_;
  std::vector<std::unique_ptr<tensor::Linear>> layer_out_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_TGAT_H_
