#ifndef BENCHTEMP_MODELS_DYREP_H_
#define BENCHTEMP_MODELS_DYREP_H_

#include <string>
#include <vector>

#include "models/memory_base.h"

namespace benchtemp::models {

/// DyRep (Trivedi et al., ICLR 2019): memory updated by an RNN whose
/// message includes a temporal-attention aggregation over the *other*
/// endpoint's neighborhood (the "localized embedding propagation" term),
/// with the node's memory used directly as its embedding.
class DyRep : public MemoryModel {
 public:
  DyRep(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "DyRep"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;

 protected:
  tensor::Var ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                                  const tensor::Var& prev_memory) override;

 private:
  /// Attention-aggregated neighborhood memory of each event's `other`
  /// endpoint at `ts`, queried by its memory -> [n, embedding_dim].
  tensor::Var AggregateNeighborhood(const std::vector<int32_t>& others,
                                    const std::vector<double>& ts,
                                    const tensor::Var& queries);

  tensor::RnnCell rnn_;
  tensor::MultiHeadAttention neighbor_attention_;
  tensor::Linear identity_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_DYREP_H_
