#ifndef BENCHTEMP_MODELS_TGN_H_
#define BENCHTEMP_MODELS_TGN_H_

#include <string>
#include <vector>

#include "models/memory_base.h"

namespace benchtemp::models {

/// TGN (Rossi et al., 2020): per-node memory with a GRU updater plus a
/// one-layer temporal graph attention embedding over sampled neighbors
/// (memory ‖ edge features ‖ Bochner time encoding).
class Tgn : public MemoryModel {
 public:
  Tgn(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "TGN"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;

 protected:
  tensor::Var ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                                  const tensor::Var& prev_memory) override;

 private:
  tensor::GruCell gru_;
  tensor::MultiHeadAttention attention_;
  tensor::Linear out_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_TGN_H_
