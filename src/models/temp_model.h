#ifndef BENCHTEMP_MODELS_TEMP_MODEL_H_
#define BENCHTEMP_MODELS_TEMP_MODEL_H_

#include <string>
#include <vector>

#include "models/memory_base.h"

namespace benchtemp::models {

/// TeMP (the paper's own model, Appendix E): memory (RNN sequence updater)
/// plus a light-weight subgraph aggregation. For each query the model
/// (b) constructs a subgraph of recent neighbors relative to a *reference
/// timestamp* (the mean timestamp of the node's history — the quantile the
/// paper found best), and (c) combines
///   * a temporal label-propagation channel (recency-softmax weighted
///     neighbor memory — no learned attention), and
///   * a message-passing channel (mean of projected edge features + time
///     encodings),
/// with the node's own memory. The design goal TeMP demonstrates in the
/// paper — near-attention quality at much lower cost — carries over: both
/// channels are single dense ops, no multi-head machinery.
class TempModel : public MemoryModel {
 public:
  TempModel(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "TeMP"; }
  tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                const std::vector<double>& ts) override;

 protected:
  tensor::Var ComputeMemoryUpdate(const std::vector<MemoryEvent>& events,
                                  const tensor::Var& prev_memory) override;

 private:
  tensor::RnnCell rnn_;
  tensor::Linear message_proj_;
  tensor::Linear combine_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_TEMP_MODEL_H_
