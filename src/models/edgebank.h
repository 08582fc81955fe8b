#ifndef BENCHTEMP_MODELS_EDGEBANK_H_
#define BENCHTEMP_MODELS_EDGEBANK_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "models/model.h"

namespace benchtemp::models {

/// EdgeBank (Poursafaei et al., NeurIPS D&B 2022 — the paper's reference
/// [8]): a parameter-free memorization baseline that predicts an edge as
/// positive iff the pair has been observed before. Strong under random
/// negatives, collapses under historical negatives — the motivation for the
/// Appendix J negative-sampling study.
class EdgeBank : public TgnnModel {
 public:
  EdgeBank(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "EdgeBank"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;
  tensor::Var ScoreEdges(const std::vector<int32_t>& srcs,
                         const std::vector<int32_t>& dsts,
                         const std::vector<double>& ts) override;
  bool trainable() const override { return false; }
  int64_t StateBytes() const override;

 protected:
  void ResetImpl() override;
  void UpdateStateImpl(const Batch& batch) override;

 private:
  int64_t Key(int32_t u, int32_t v) const {
    return static_cast<int64_t>(u) * graph_->num_nodes() + v;
  }

  std::unordered_set<int64_t> seen_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_EDGEBANK_H_
