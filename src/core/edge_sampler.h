#ifndef BENCHTEMP_CORE_EDGE_SAMPLER_H_
#define BENCHTEMP_CORE_EDGE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/random.h"

namespace benchtemp::core {

/// Negative edge sampler (link prediction is self-supervised, so each
/// observed edge is paired with sampled negatives). The three strategies
/// differ only in the pool a row draws from first (`Pool`); the keyed loop
/// and the draw itself are shared.
///
/// Draws are keyed: a batch's negatives are a pure function of its stream
/// seed, so validation/test negatives are identical across epochs, models
/// and runs — one of the paper's standardization points — and a batch
/// prepared ahead of time on a prefetch thread is bit-identical to the
/// same batch prepared synchronously.
///
/// Collision and fallback contract, shared by `CandidateSampler`: a drawn
/// negative never equals the row's true destination (bounded deterministic
/// rejection, each rejected draw counted in `sampler.collisions_rejected`),
/// except in the degenerate single-destination range where no distinct
/// negative exists. A row whose pool cannot supply one (empty pool, or the
/// rejection budget runs dry) is counted once in `sampler.pool_fallbacks`
/// and drawn uniformly over the range instead — never `UniformInt(0)`.
class EdgeSampler {
 public:
  virtual ~EdgeSampler() = default;

  /// One negative destination per source in `srcs`, a function of
  /// (stream_seed, srcs, positive_dsts) only; `positive_dsts` are the
  /// batch's true destinations the draws must avoid (same length as
  /// `srcs`). Reads and advances no sampler state. Thread-safe.
  std::vector<int32_t> SampleNegativesKeyed(
      uint64_t stream_seed, const std::vector<int32_t>& srcs,
      const std::vector<int32_t>& positive_dsts) const;

 protected:
  /// Negatives fall in the destination id range [dst_lo, dst_hi): the item
  /// block of a bipartite graph, the whole node range otherwise.
  EdgeSampler(int32_t dst_lo, int32_t dst_hi);

  /// The destinations a row with source `src` draws from first; nullptr
  /// draws uniformly over the range with no fallback counted.
  virtual const std::vector<int32_t>* Pool(int32_t src) const = 0;

 private:
  int32_t dst_lo_;
  int32_t dst_hi_;
};

/// Uniform negatives over the destination range.
class RandomEdgeSampler : public EdgeSampler {
 public:
  RandomEdgeSampler(int32_t dst_lo, int32_t dst_hi, uint64_t seed);

  /// Serialized state of the seed-initialized RNG, kept because job
  /// checkpoints carry it in their `sampler_rng` section. Nothing advances
  /// it: every draw is keyed, so saved and restored states are the
  /// constructor's.
  std::string SaveRngState() const { return rng_.SaveState(); }
  bool LoadRngState(const std::string& state) {
    return rng_.LoadState(state);
  }

 protected:
  const std::vector<int32_t>* Pool(int32_t) const override { return nullptr; }

 private:
  tensor::Rng rng_;
};

/// Historical negative sampling (Appendix J, Fig. 10a): negatives are edges
/// observed during *previous* timestamps — here, destinations the source
/// interacted with in the training stream.
class HistoricalEdgeSampler : public EdgeSampler {
 public:
  /// `graph` + `train_events` define E_train.
  HistoricalEdgeSampler(const graph::TemporalGraph& graph,
                        const std::vector<int64_t>& train_events,
                        int32_t dst_lo, int32_t dst_hi);

 protected:
  const std::vector<int32_t>* Pool(int32_t src) const override {
    return &history_[static_cast<size_t>(src)];
  }

 private:
  std::vector<std::vector<int32_t>> history_;  // per-source train dsts
};

/// Inductive negative sampling (Appendix J, Fig. 10b): negatives drawn from
/// edges in E_all that were *not* observed during training.
class InductiveEdgeSampler : public EdgeSampler {
 public:
  InductiveEdgeSampler(const graph::TemporalGraph& graph,
                       const std::vector<int64_t>& train_events,
                       int32_t dst_lo, int32_t dst_hi);

 protected:
  const std::vector<int32_t>* Pool(int32_t) const override {
    return &unseen_dsts_;
  }

 private:
  /// Destinations of edges present in val/test but absent from E_train.
  std::vector<int32_t> unseen_dsts_;
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
  /// source's training history; the remainder, and the shortfall of a
  /// source with thin history, is uniform over the range.
  double historical_fraction = 0.5;
};

/// Draws k-candidate negative sets for MRR/Hits@k ranking. Every draw is a
/// pure function of (row seed, src, positive_dst): the sampler holds no
/// mutable state, so candidate sets are bit-identical at any pipeline
/// prefetch depth and thread count. Each returned set is deduplicated and
/// excludes the positive destination. Rejected draws are counted as for
/// `EdgeSampler`; each historical slot a thin history cannot fill counts
/// one pool fallback.
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
