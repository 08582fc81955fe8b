#ifndef BENCHTEMP_TENSOR_OPTIMIZER_H_
#define BENCHTEMP_TENSOR_OPTIMIZER_H_

#include <string>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor {

/// Adam (Kingma & Ba, 2014) — the optimizer the paper trains every model
/// with (lr 1e-4, default betas/eps).
class Adam {
 public:
  explicit Adam(std::vector<Var> params, float lr = 1e-4f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update using the parameters' accumulated gradients.
  void Step();
  /// Clears the parameters' gradient buffers.
  void ZeroGrad();

  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }
  /// Number of Step() calls applied so far (the bias-correction clock).
  int64_t step_count() const { return t_; }

  /// Serializes the full update state (step clock + first/second moments)
  /// as an in-memory blob, so a resumed job reproduces the exact update
  /// trajectory. Format: magic "BTAD", uint64 step, uint64 param count, per
  /// parameter a uint64 size and the two moment payloads.
  std::string SnapshotState() const;
  /// Restores a state written by SnapshotState. Returns false (state
  /// untouched) on magic/count/shape mismatch or a truncated blob.
  bool RestoreState(const std::string& blob);

 private:
  std::vector<Var> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// Clips the global L2 norm of the parameters' gradients to `max_norm`.
void ClipGradNorm(const std::vector<Var>& params, float max_norm);

/// True when every entry of `t` is finite (no NaN / Inf).
bool AllFinite(const Tensor& t);

/// True when every parameter value is finite. The trainer's NaN sentinel
/// checks this after each optimizer step.
bool ParamsFinite(const std::vector<Var>& params);

/// True when every accumulated gradient entry is finite.
bool GradsFinite(const std::vector<Var>& params);

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_OPTIMIZER_H_
