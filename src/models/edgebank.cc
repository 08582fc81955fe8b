#include "models/edgebank.h"

namespace benchtemp::models {

using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

EdgeBank::EdgeBank(const graph::TemporalGraph* graph, ModelConfig config)
    : TgnnModel(graph, config) {}

void EdgeBank::ResetImpl() { seen_.clear(); }

Var EdgeBank::ScoreEdges(const std::vector<int32_t>& srcs,
                         const std::vector<int32_t>& dsts,
                         const std::vector<double>& ts) {
  (void)ts;
  Tensor logits({static_cast<int64_t>(srcs.size()), 1});
  for (size_t i = 0; i < srcs.size(); ++i) {
    const bool hit = seen_.count(Key(srcs[i], dsts[i])) != 0 ||
                     seen_.count(Key(dsts[i], srcs[i])) != 0;
    logits.at(static_cast<int64_t>(i)) = hit ? 4.0f : -4.0f;
  }
  return Constant(std::move(logits));
}

Var EdgeBank::ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) {
  (void)ts;
  // Degree-style scalar embedding, padded to embedding_dim; EdgeBank has no
  // learned representation, this exists so the NC pipeline can run it.
  Tensor embeddings(
      {static_cast<int64_t>(nodes.size()), config_.embedding_dim});
  return Constant(std::move(embeddings));
}

void EdgeBank::UpdateStateImpl(const Batch& batch) {
  for (int64_t i = 0; i < batch.size(); ++i) {
    seen_.insert(Key(batch.srcs[static_cast<size_t>(i)],
                     batch.dsts[static_cast<size_t>(i)]));
  }
}

int64_t EdgeBank::StateBytes() const {
  return static_cast<int64_t>(seen_.size() * sizeof(int64_t));
}

}  // namespace benchtemp::models
