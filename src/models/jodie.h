#ifndef BENCHTEMP_MODELS_JODIE_H_
#define BENCHTEMP_MODELS_JODIE_H_

#include <string>
#include <vector>

#include "models/memory_base.h"

namespace benchtemp::models {

/// JODIE (Kumar et al., KDD 2019): joint user/item memory updated by two
/// RNNs, with the signature *time-projection* embedding
///   e_u(t) = (1 + dt * w) ⊙ m_u
/// that drifts a node's embedding between its interactions.
class Jodie : public MemoryModel {
 public:
  /// `num_users` splits the id space into the user RNN (ids < num_users)
  /// and the item RNN (ids >= num_users); pass 0 for homogeneous graphs
  /// (a single RNN).
  Jodie(const graph::TemporalGraph* graph, ModelConfig config,
        int32_t num_users);

  std::string name() const override { return "JODIE"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;

 protected:
  tensor::Var ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                                  const tensor::Var& prev_memory) override;

 private:
  int32_t num_users_;
  tensor::RnnCell user_rnn_;
  tensor::RnnCell item_rnn_;
  /// Time-projection drift direction w ([1, dim]).
  tensor::Var projection_;
  /// Output embedding map.
  tensor::Linear output_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_JODIE_H_
