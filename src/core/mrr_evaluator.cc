#include "core/mrr_evaluator.h"

#include "tensor/numeric.h"
#include "tensor/tensor.h"

namespace benchtemp::core {

double RankOfPositive(double pos_score, const double* candidate_scores,
                      int64_t k, TiePolicy policy) {
  tensor::CheckOrDie(k >= 1, "RankOfPositive: k must be >= 1");
  int64_t better = 0;
  int64_t tied = 0;
  for (int64_t j = 0; j < k; ++j) {
    const double c = candidate_scores[j];
    // Exact score ties are the quantity being ranked (midrank convention,
    // mirroring RocAuc's tie handling); an epsilon here would misrank
    // near-ties instead of splitting exact ones.
    if (c > pos_score) {
      ++better;
    } else if (tensor::ExactlyEqual(c, pos_score)) {
      ++tied;
    }
  }
  const double base = 1.0 + static_cast<double>(better);
  switch (policy) {
    case TiePolicy::kOptimistic:
      return base;
    case TiePolicy::kMeanRank:
      break;
  }
  return base + 0.5 * static_cast<double>(tied);
}

RankingMetrics RankingFromRanks(const std::vector<double>& ranks) {
  RankingMetrics out;
  out.count = static_cast<int64_t>(ranks.size());
  if (ranks.empty()) return out;
  for (double r : ranks) {
    out.mrr += 1.0 / r;
    if (r <= 1.0) out.hits_at_1 += 1.0;
    if (r <= 10.0) out.hits_at_10 += 1.0;
  }
  const double n = static_cast<double>(ranks.size());
  out.mrr /= n;
  out.hits_at_1 /= n;
  out.hits_at_10 /= n;
  return out;
}

}  // namespace benchtemp::core
