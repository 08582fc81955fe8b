#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/numeric.h"
#include "tensor/tensor.h"

namespace benchtemp::core {

double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& labels) {
  tensor::CheckOrDie(scores.size() == labels.size(), "RocAuc: size mismatch");
  const size_t n = scores.size();
  int64_t num_pos = 0;
  for (int y : labels) num_pos += (y != 0);
  const int64_t num_neg = static_cast<int64_t>(n) - num_pos;
  if (num_pos == 0 || num_neg == 0) return 0.5;

  // AUC via the rank-sum (Mann-Whitney U) statistic with midranks for ties.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] < scores[b];
  });
  double rank_sum_pos = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n &&
           tensor::ExactlyEqual(scores[order[j + 1]], scores[order[i]])) {
      ++j;
    }
    // Midrank of the tie group [i, j] (1-based ranks).
    const double midrank = 0.5 * (static_cast<double>(i + 1) +
                                  static_cast<double>(j + 1));
    for (size_t k = i; k <= j; ++k) {
      if (labels[order[k]] != 0) rank_sum_pos += midrank;
    }
    i = j + 1;
  }
  const double u = rank_sum_pos - 0.5 * static_cast<double>(num_pos) *
                                      static_cast<double>(num_pos + 1);
  return u / (static_cast<double>(num_pos) * static_cast<double>(num_neg));
}

double AveragePrecision(const std::vector<double>& scores,
                        const std::vector<int>& labels) {
  tensor::CheckOrDie(scores.size() == labels.size(),
                     "AveragePrecision: size mismatch");
  const size_t n = scores.size();
  int64_t num_pos = 0;
  for (int y : labels) num_pos += (y != 0);
  // Degenerate single-class inputs return the prevalence (see header): an
  // all-negative set has AP 0, an all-positive one has precision 1 at
  // every recall level.
  if (num_pos == 0) return 0.0;
  if (num_pos == static_cast<int64_t>(n)) return 1.0;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  // AP = sum over thresholds of (recall_k - recall_{k-1}) * precision_k.
  double ap = 0.0;
  int64_t true_pos = 0;
  double prev_recall = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (labels[order[k]] != 0) ++true_pos;
    // Advance only at distinct-score boundaries to treat ties as one
    // threshold.
    if (k + 1 < n &&
        tensor::ExactlyEqual(scores[order[k + 1]], scores[order[k]])) {
      continue;
    }
    const double recall =
        static_cast<double>(true_pos) / static_cast<double>(num_pos);
    const double precision =
        static_cast<double>(true_pos) / static_cast<double>(k + 1);
    ap += (recall - prev_recall) * precision;
    prev_recall = recall;
  }
  return ap;
}

double Accuracy(const std::vector<int>& predicted,
                const std::vector<int>& actual) {
  tensor::CheckOrDie(predicted.size() == actual.size(),
                     "Accuracy: size mismatch");
  if (predicted.empty()) return 0.0;
  int64_t correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    correct += (predicted[i] == actual[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

WeightedPrf WeightedPrecisionRecallF1(const std::vector<int>& predicted,
                                      const std::vector<int>& actual,
                                      int num_classes) {
  tensor::CheckOrDie(predicted.size() == actual.size(),
                     "WeightedPrecisionRecallF1: size mismatch");
  std::vector<int64_t> support(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> predicted_count(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> true_pos(static_cast<size_t>(num_classes), 0);
  for (size_t i = 0; i < actual.size(); ++i) {
    support[static_cast<size_t>(actual[i])]++;
    predicted_count[static_cast<size_t>(predicted[i])]++;
    if (predicted[i] == actual[i]) true_pos[static_cast<size_t>(actual[i])]++;
  }
  WeightedPrf out;
  if (actual.empty()) return out;
  const double total = static_cast<double>(actual.size());
  for (int c = 0; c < num_classes; ++c) {
    const size_t ci = static_cast<size_t>(c);
    const double weight = static_cast<double>(support[ci]) / total;
    const double precision =
        predicted_count[ci] > 0
            ? static_cast<double>(true_pos[ci]) /
                  static_cast<double>(predicted_count[ci])
            : 0.0;
    const double recall = support[ci] > 0
                              ? static_cast<double>(true_pos[ci]) /
                                    static_cast<double>(support[ci])
                              : 0.0;
    // sklearn's average="weighted" support-weights the *per-class* F1, which
    // differs from the F1 of the weighted P/R aggregates whenever class-wise
    // precision and recall are imbalanced.
    const double f1 = precision + recall > 0.0
                          ? 2.0 * precision * recall / (precision + recall)
                          : 0.0;
    out.precision += weight * precision;
    out.recall += weight * recall;
    out.f1 += weight * f1;
  }
  return out;
}

MeanStd Summarize(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  for (double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  // Sample (n-1) std, matching numpy with ddof=1 as used by the paper's
  // mean±std-over-3-runs tables; a single run has no spread estimate.
  if (values.size() < 2) return out;
  double var = 0.0;
  for (double v : values) var += (v - out.mean) * (v - out.mean);
  out.std = std::sqrt(var / static_cast<double>(values.size() - 1));
  return out;
}

}  // namespace benchtemp::core
