#ifndef BENCHTEMP_CORE_EDGE_SAMPLER_H_
#define BENCHTEMP_CORE_EDGE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/random.h"

namespace benchtemp::core {

/// Negative edge sampler interface (link prediction is self-supervised, so
/// each observed edge is paired with sampled negatives).
///
/// Draws are keyed: a batch's negatives are a pure function of its stream
/// seed, so validation/test negatives are identical across epochs, models
/// and runs — one of the paper's standardization points — and a batch
/// prepared ahead of time on a prefetch thread is bit-identical to the
/// same batch prepared synchronously.
///
/// Collision contract: a drawn negative never equals the batch's true
/// destination for the same source (bounded deterministic rejection,
/// counted in `sampler.collisions_rejected`), except in the degenerate
/// single-destination range where no distinct negative exists. Pool-based
/// samplers that cannot honor their pool (empty history / fully-covered
/// train split) fall back to uniform draws, counted in
/// `sampler.pool_fallbacks` — never a silent `UniformInt(0)`.
class EdgeSampler {
 public:
  virtual ~EdgeSampler() = default;

  /// One negative destination per source in `srcs`, a function of
  /// (stream_seed, srcs, positive_dsts) only; `positive_dsts` are the
  /// batch's true destinations the draws must avoid (same length as
  /// `srcs`). Reads and advances no sampler state. Thread-safe.
  virtual std::vector<int32_t> SampleNegativesKeyed(
      uint64_t stream_seed, const std::vector<int32_t>& srcs,
      const std::vector<int32_t>& positive_dsts) const = 0;
};

/// Uniform negatives over the destination id range [dst_lo, dst_hi).
/// For bipartite graphs the range is the item block; for homogeneous graphs
/// the whole node range.
class RandomEdgeSampler : public EdgeSampler {
 public:
  RandomEdgeSampler(int32_t dst_lo, int32_t dst_hi, uint64_t seed);

  std::vector<int32_t> SampleNegativesKeyed(
      uint64_t stream_seed, const std::vector<int32_t>& srcs,
      const std::vector<int32_t>& positive_dsts) const override;

  /// Serialized state of the seed-initialized RNG, kept because job
  /// checkpoints carry it in their `sampler_rng` section. Nothing advances
  /// it: every draw is keyed, so saved and restored states are the
  /// constructor's.
  std::string SaveRngState() const { return rng_.SaveState(); }
  bool LoadRngState(const std::string& state) {
    return rng_.LoadState(state);
  }

 private:
  int32_t dst_lo_;
  int32_t dst_hi_;
  tensor::Rng rng_;
};

/// Historical negative sampling (Appendix J, Fig. 10a): negatives are edges
/// observed during *previous* timestamps — here, destinations the source
/// interacted with in the training stream. Falls back to uniform (counted)
/// when the source has no usable history.
class HistoricalEdgeSampler : public EdgeSampler {
 public:
  /// `graph` + `train_events` define E_train.
  HistoricalEdgeSampler(const graph::TemporalGraph& graph,
                        const std::vector<int64_t>& train_events,
                        int32_t dst_lo, int32_t dst_hi);

  std::vector<int32_t> SampleNegativesKeyed(
      uint64_t stream_seed, const std::vector<int32_t>& srcs,
      const std::vector<int32_t>& positive_dsts) const override;

 private:
  int32_t DrawOne(tensor::Rng& rng, int32_t src, int32_t positive_dst) const;

  std::vector<std::vector<int32_t>> history_;  // per-source train dsts
  int32_t dst_lo_;
  int32_t dst_hi_;
};

/// Inductive negative sampling (Appendix J, Fig. 10b): negatives drawn from
/// edges in E_all that were *not* observed during training. A fully-covered
/// train split leaves the pool empty; the draw then falls back to uniform
/// over the range (counted), never `UniformInt(0)`.
class InductiveEdgeSampler : public EdgeSampler {
 public:
  InductiveEdgeSampler(const graph::TemporalGraph& graph,
                       const std::vector<int64_t>& train_events,
                       int32_t dst_lo, int32_t dst_hi);

  std::vector<int32_t> SampleNegativesKeyed(
      uint64_t stream_seed, const std::vector<int32_t>& srcs,
      const std::vector<int32_t>& positive_dsts) const override;

 private:
  int32_t DrawOne(tensor::Rng& rng, int32_t positive_dst) const;

  /// Destinations of edges present in val/test but absent from E_train.
  std::vector<int32_t> unseen_dsts_;
  int32_t dst_lo_;
  int32_t dst_hi_;
};

/// Which negative sampler a pipeline run uses.
enum class NegativeSampling { kRandom, kHistorical, kInductive };

const char* NegativeSamplingName(NegativeSampling mode);

/// Factory covering the three strategies. `seed` only initializes the
/// random sampler's checkpointed RNG state (see RandomEdgeSampler).
std::unique_ptr<EdgeSampler> MakeEdgeSampler(
    NegativeSampling mode, const graph::TemporalGraph& graph,
    const std::vector<int64_t>& train_events, int32_t dst_lo, int32_t dst_hi,
    uint64_t seed);

/// Candidate-set protocol of the TGB-style ranking evaluator (see DESIGN.md
/// "Ranking evaluation").
struct CandidateConfig {
  /// Candidate negatives per positive. Clamped to the number of distinct
  /// non-positive destinations in the range, so a candidate set can always
  /// be collision-free and deduplicated.
  int k = 20;
  /// Target share of candidates drawn (without replacement) from the
  /// source's training history; the remainder is uniform over the range.
  /// Sources with thin history fall back to uniform for the shortfall,
  /// counted in `sampler.pool_fallbacks`.
  double historical_fraction = 0.5;
};

/// Draws k-candidate negative sets for MRR/Hits@k ranking. Every draw is a
/// pure function of (row seed, src, positive_dst): the sampler holds no
/// mutable state, so candidate sets are bit-identical at any pipeline
/// prefetch depth and thread count. Each returned set is deduplicated and
/// excludes the positive destination.
class CandidateSampler {
 public:
  CandidateSampler(const graph::TemporalGraph& graph,
                   const std::vector<int64_t>& train_events, int32_t dst_lo,
                   int32_t dst_hi, CandidateConfig config);

  /// Candidate set of one positive edge: exactly `k()` distinct
  /// destinations in [dst_lo, dst_hi), none equal to `positive_dst`.
  std::vector<int32_t> SampleCandidates(uint64_t row_seed, int32_t src,
                                        int32_t positive_dst) const;

  /// One batch of candidate sets, row-major [srcs.size() * k()]. Row i is
  /// keyed by SplitMix64(stream_seed, i), so any batch partitioning or
  /// preparation order yields the same bytes.
  std::vector<int32_t> SampleCandidateBatch(
      uint64_t stream_seed, const std::vector<int32_t>& srcs,
      const std::vector<int32_t>& positive_dsts) const;

  /// Effective candidates per positive (config.k clamped to range - 1).
  int k() const { return k_; }

 private:
  std::vector<std::vector<int32_t>> history_;  // per-source sorted unique
  int32_t dst_lo_;
  int32_t dst_hi_;
  int k_;
  double historical_fraction_;
};

}  // namespace benchtemp::core

#endif  // BENCHTEMP_CORE_EDGE_SAMPLER_H_
