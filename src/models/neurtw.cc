#include "models/neurtw.h"

#include <algorithm>
#include <cmath>

namespace benchtemp::models {

using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

NeurTw::NeurTw(const graph::TemporalGraph* graph, ModelConfig config)
    : WalkModel(graph, config),
      ode_gate_(config.embedding_dim, config.embedding_dim, rng_),
      ode_dir_(config.embedding_dim, config.embedding_dim, rng_) {
  Own(ode_gate_);
  Own(ode_dir_);
  sampler_ = std::make_unique<graph::TemporalWalkSampler>(
      config_.walk_bias, /*alpha=*/1.0 / graph_->MeanEventGap());
}

Var NeurTw::EvolveHidden(const tensor::Var& hidden,
                         const std::vector<float>& gaps) {
  if (!config_.use_nodes) return hidden;
  // Fixed-step Euler integration of dh/ds = g(h) ⊙ d(h) over the per-row
  // normalized interval (Eq. (6)'s change of variables): each Euler step
  // advances h by (gap / steps) * f(h). Gaps are clamped so extreme
  // intervals cannot blow up the state. A row's step size fills the row,
  // so each step is one same-size Mul.
  constexpr int64_t kOdeSteps = 3;  // Euler sub-steps
  const int64_t rows = hidden->value.rows(), width = hidden->value.cols();
  Tensor step_sizes({rows, width});
  const float inv_steps = 1.0f / static_cast<float>(kOdeSteps);
  for (int64_t r = 0; r < rows; ++r) {
    const float gap = std::min(std::max(gaps[static_cast<size_t>(r)], 0.0f),
                               10.0f);
    std::fill_n(step_sizes.data() + r * width, width, gap * inv_steps);
  }
  Var dt = Constant(std::move(step_sizes));
  Var h = hidden;
  for (int64_t k = 0; k < kOdeSteps; ++k) {
    Var f = Mul(Sigmoid(ode_gate_.Forward({h})), Tanh(ode_dir_.Forward({h})));
    h = Add(h, Mul(f, dt));
  }
  return h;
}

}  // namespace benchtemp::models
