#ifndef BENCHTEMP_TENSOR_MODULES_H_
#define BENCHTEMP_TENSOR_MODULES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor {

/// Base class for trainable components. A module owns `Parameter` leaves
/// and lists them once, in its constructor: `Own` appends one leaf, or every
/// leaf of a submodule, in call order. The list's order is state (the
/// checkpoint's parameter and Adam layout, ClipGradNorm's summation order),
/// so reordering `Own` calls changes what a checkpoint holds.
/// Composition is by membership, matching the layer/module idiom of the
/// frameworks the paper's models ship in.
class Module {
 public:
  virtual ~Module() = default;
  /// All trainable leaves of this module (including those of submodules).
  const std::vector<Var>& Parameters() const { return params_; }
  /// Total parameter bytes (float32).
  int64_t ParameterBytes() const;

 protected:
  void Own(const Module& module);
  void Own(const Var& param);

 private:
  std::vector<Var> params_;
};

/// Affine map y = x W + b with Xavier-uniform initialization.
class Linear : public Module {
 public:
  Linear(int64_t in_dim, int64_t out_dim, Rng& rng, bool bias = true);

  /// [B_1 | ... | B_n] W + b over column blocks (tensor::Project), so no
  /// concatenation is built and gathered feature rows are projected once
  /// per distinct row. One tensor x is Forward({x}).
  Var Forward(const std::vector<ColBlock>& blocks) const;
  /// The same rows left unsummed (tensor::ProjectRows), for readers that
  /// sum only the columns they read.
  SummedRows ForwardRows(const std::vector<ColBlock>& blocks) const;

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Var weight_;
  Var bias_;  // null when bias is disabled
};

/// Multi-layer perceptron with ReLU between layers (none after the last).
class Mlp : public Module {
 public:
  /// `dims` lists layer widths, e.g. {in, hidden, out}.
  Mlp(const std::vector<int64_t>& dims, Rng& rng);

  /// The first layer reads the column blocks (Linear::Forward).
  Var Forward(const std::vector<ColBlock>& blocks) const;

 private:
  std::vector<Linear> layers_;
};

/// Vanilla RNN cell: h' = tanh(x Wx + h Wh + b), x given as column blocks.
class RnnCell : public Module {
 public:
  RnnCell(int64_t input_dim, int64_t hidden_dim, Rng& rng);

  Var Forward(const std::vector<ColBlock>& x, const Var& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Linear input_map_;
  Linear hidden_map_;
};

/// Gated recurrent unit cell (the TGN memory updater); x is given as
/// column blocks.
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, Rng& rng);

  /// A null `h` is the zero state (PyTorch's GRUCell with hx=None): the
  /// h-side projections and the reset gate are skipped, since each would
  /// compute only zeros.
  Var Forward(const std::vector<ColBlock>& x, const Var& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Linear update_x_, update_h_;
  Linear reset_x_, reset_h_;
  Linear cand_x_, cand_h_;
};

/// Bochner functional time encoding phi(dt) = cos(dt * w + b), the encoding
/// shared by TGAT, TGN, CAWN and NeurTW. Frequencies are initialized on a
/// log-spaced grid (as in TGAT) and trainable.
class TimeEncoder : public Module {
 public:
  explicit TimeEncoder(int64_t dim);

  /// Encodes n time deltas -> [n, dim].
  Var Encode(const std::vector<float>& dt) const;
  /// The rows of Encode(dt) as a `Project` block: each distinct delta (by
  /// its bits) is encoded once, so equal deltas share one row.
  std::shared_ptr<const GatheredRows> EncodeRows(
      const std::vector<float>& dt) const;

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  Var freq_;  // [1, dim]
  Var phase_;  // [1, dim]
};

/// Multi-head scaled dot-product attention over per-query neighbor blocks.
///
/// Queries are [B, q_dim], given as column blocks whose widths sum to
/// q_dim; each query attends over `num_keys` keys stored flat as
/// [B*K, kv_dim], given the same way. The keys also serve as the values.
/// `mask` ([B, K]) zeroes out padding neighbors. Output is [B, model_dim]:
/// one `Attention` node over the projected q, K and V, then `out_proj_`.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t q_dim, int64_t kv_dim, int64_t model_dim,
                     int64_t num_heads, Rng& rng);

  Var Forward(const std::vector<ColBlock>& queries,
              const std::vector<ColBlock>& keys, const Tensor& mask,
              int64_t num_keys) const;

  int64_t model_dim() const { return model_dim_; }

 private:
  int64_t model_dim_;
  int64_t num_heads_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
};

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_MODULES_H_
