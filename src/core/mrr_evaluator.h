#ifndef BENCHTEMP_CORE_MRR_EVALUATOR_H_
#define BENCHTEMP_CORE_MRR_EVALUATOR_H_

// TGB-style ranking evaluation (see DESIGN.md "Ranking evaluation"): each
// positive edge is ranked against k candidate negatives drawn by a
// CandidateSampler, and the pass reports MRR and Hits@{1,10}. Unlike the
// one-negative AUC/AP protocol, ranking against many candidates does not
// saturate near 1.0 and separates models the binary metrics conflate.

#include <cstdint>
#include <vector>

namespace benchtemp::core {

/// How a positive that exactly ties candidate scores is ranked.
enum class TiePolicy {
  /// 1 + #{better} + 0.5 * #{tied} — the unbiased convention (a random
  /// tie-break in expectation); the default everywhere.
  kMeanRank,
  /// 1 + #{better} — ties resolve in the positive's favor. Upper-bounds
  /// the mean-rank metrics; useful to detect models scoring constants.
  kOptimistic,
};

/// Aggregated ranking metrics of one evaluation pass (or a subset of it).
/// `count == 0` means the ranking evaluator was off (all metrics 0).
struct RankingMetrics {
  double mrr = 0.0;
  double hits_at_1 = 0.0;
  double hits_at_10 = 0.0;
  int64_t count = 0;
};

/// Rank of one positive among {positive} ∪ candidates (1-based; 1 = best).
/// Mean-rank ties yield half-integer ranks.
double RankOfPositive(double pos_score, const double* candidate_scores,
                      int64_t k, TiePolicy policy);

/// Aggregates per-event ranks into MRR / Hits@{1,10}. A rank r scores a
/// hit at cutoff h iff r <= h, so a mean-rank 1.5 (two-way tie at the top)
/// misses Hits@1 but makes Hits@10.
RankingMetrics RankingFromRanks(const std::vector<double>& ranks);

}  // namespace benchtemp::core

#endif  // BENCHTEMP_CORE_MRR_EVALUATOR_H_
