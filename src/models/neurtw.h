#ifndef BENCHTEMP_MODELS_NEURTW_H_
#define BENCHTEMP_MODELS_NEURTW_H_

#include <string>
#include <vector>

#include "models/walk_base.h"

namespace benchtemp::models {

/// NeurTW (Jin et al., NeurIPS 2022): spatiotemporal-biased temporal walks
/// whose motif encodings are evolved across irregular time intervals by a
/// neural ODE (an autoregressive GRU integrated with fixed-step Euler, the
/// "continuous evolution" of the paper's Eq. (5)/(6)).
///
/// `config.walk_bias == kLinearSafe` selects the paper's overflow-safe
/// sampling weights (Appendix C Eq. 2/3) used for large-time-granularity
/// datasets; `config.use_nodes == false` removes the NODE module (the
/// Table 23 ablation).
class NeurTw : public WalkModel {
 public:
  NeurTw(const graph::TemporalGraph* graph, ModelConfig config);

  std::string name() const override { return "NeurTW"; }

 protected:
  tensor::Var EvolveHidden(const tensor::Var& hidden,
                           const std::vector<float>& gaps) override;

 private:
  /// ODE dynamics f(h) — a gated update direction.
  tensor::Linear ode_gate_;
  tensor::Linear ode_dir_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_NEURTW_H_
