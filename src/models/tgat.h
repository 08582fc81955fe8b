#ifndef BENCHTEMP_MODELS_TGAT_H_
#define BENCHTEMP_MODELS_TGAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/model.h"
#include "tensor/modules.h"

namespace benchtemp::models {

/// One TGAT embedding call laid out breadth first; `nodes` and `ts` are
/// the call's queries, as given. `levels[l]` holds the distinct queries
/// whose layer-l embedding the call needs: keyed by node and the bits of
/// the query time for l >= 1, and by node alone at layer 0, which ignores
/// time. Duplicates within one level share one row, one neighbourhood draw
/// and one attention row.
struct TgatPlan : public PreparedCall {
  struct Level {
    std::vector<int32_t> nodes;
    /// Query times; empty at layer 0.
    std::vector<double> ts;
    /// Neighbourhoods of the distinct queries (layers >= 1).
    graph::SampledNeighborhood nb;
    /// Row of each query (self) and of each neighbour slot in level l - 1.
    std::vector<int32_t> self_rows;
    std::vector<int32_t> nbr_rows;
  };
  /// Row of each query in the top level.
  std::vector<int32_t> out_rows;
  /// Index l is layer l; `levels.back()` is the top layer.
  std::vector<Level> levels;
};

/// TGAT (Xu et al., ICLR 2020): stateless stacked temporal self-attention.
/// Layer l embeds a node at time t by attending over its sampled temporal
/// neighbors' layer-(l-1) embeddings, concatenated with edge features and a
/// Bochner time encoding. No memory: everything is recomputed per query,
/// which also makes TGAT the natural inductive baseline.
///
/// When `config.tgat_time_window > 0`, neighbor lookups are restricted to
/// (t - window, t). If no distinct query of one layer's attention finds a
/// neighbor in the window (at the top layer: an entire batch) the model
/// flags ModelStatus::kRuntimeError — reproducing the paper's "*" failure
/// of TGAT on UNTrade ("may not find suitable neighbors within some given
/// time intervals").
class Tgat : public TgnnModel {
 public:
  Tgat(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "TGAT"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;

  /// Pre-samples the plans of the batch's three embedding calls (srcs,
  /// dsts, negatives; both ScoreEdges calls share the source embeddings).
  /// Pure: draws from a local RNG keyed by `seed` (SplitMix64 lane 3), never
  /// the member RNG, so it is safe on a prefetch thread and bit-identical to
  /// inline preparation.
  std::unique_ptr<PreparedInputs> PrepareBatch(
      const Batch& batch, const std::vector<int32_t>& negatives,
      uint64_t seed) const override;

  /// Builds the breadth-first plan of ComputeEmbeddings(nodes, ts), top
  /// layer first: each level's distinct queries draw their neighbourhoods
  /// with one SampleNeighborhood call, in first-occurrence order, and the
  /// next level lists those queries followed by every neighbour slot,
  /// deduplicated again.
  TgatPlan Plan(const std::vector<int32_t>& nodes,
                const std::vector<double>& ts, tensor::Rng& rng) const;

 protected:
  void ResetImpl() override;

 private:
  /// Runs a plan bottom-up: layer 0 projects the distinct nodes' features,
  /// layer l attends once per distinct query over keys that project each
  /// layer l - 1 row once (tensor::RowsOf), and the result gathers the top
  /// level at `out_rows`.
  tensor::Var Embed(const TgatPlan& plan);

  tensor::Linear feature_proj_;
  tensor::TimeEncoder time_encoder_;
  std::vector<std::unique_ptr<tensor::MultiHeadAttention>> layers_;
  std::vector<std::unique_ptr<tensor::Linear>> layer_out_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_TGAT_H_
