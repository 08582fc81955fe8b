#include "tensor/modules.h"

#include <cmath>

#include "tensor/distinct.h"
#include "tensor/kernels/arena.h"

namespace benchtemp::tensor {

int64_t Module::ParameterBytes() const {
  int64_t total = 0;
  for (const Var& p : params_) {
    total += p->value.size() * static_cast<int64_t>(sizeof(float));
  }
  return total;
}

void Module::Own(const Module& module) {
  params_.insert(params_.end(), module.params_.begin(), module.params_.end());
}

void Module::Own(const Var& param) { params_.push_back(param); }

// ---------------------------------------------------------------------------
// Linear.
// ---------------------------------------------------------------------------

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng& rng, bool bias)
    : in_dim_(in_dim), out_dim_(out_dim) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
  weight_ = tensor::Parameter(
      Tensor::Uniform({in_dim, out_dim}, rng, -bound, bound));
  Own(weight_);
  if (bias) {
    bias_ = tensor::Parameter(Tensor::Zeros({1, out_dim}));
    Own(bias_);
  }
}

Var Linear::Forward(const std::vector<ColBlock>& blocks) const {
  return Project(blocks, weight_, bias_);
}

SummedRows Linear::ForwardRows(const std::vector<ColBlock>& blocks) const {
  return ProjectRows(blocks, weight_, bias_);
}

// ---------------------------------------------------------------------------
// Mlp.
// ---------------------------------------------------------------------------

Mlp::Mlp(const std::vector<int64_t>& dims, Rng& rng) {
  CheckOrDie(dims.size() >= 2, "Mlp: need at least input and output dims");
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
  for (const Linear& layer : layers_) Own(layer);
}

Var Mlp::Forward(const std::vector<ColBlock>& blocks) const {
  Var h = layers_[0].Forward(blocks);
  for (size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i].Forward({Relu(h)});
  }
  return h;
}

// ---------------------------------------------------------------------------
// RnnCell.
// ---------------------------------------------------------------------------

RnnCell::RnnCell(int64_t input_dim, int64_t hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim),
      input_map_(input_dim, hidden_dim, rng),
      hidden_map_(hidden_dim, hidden_dim, rng, /*bias=*/false) {
  Own(input_map_);
  Own(hidden_map_);
}

Var RnnCell::Forward(const std::vector<ColBlock>& x, const Var& h) const {
  return Tanh(Add(input_map_.Forward(x), hidden_map_.Forward({h})));
}

// ---------------------------------------------------------------------------
// GruCell.
// ---------------------------------------------------------------------------

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim),
      update_x_(input_dim, hidden_dim, rng),
      update_h_(hidden_dim, hidden_dim, rng, /*bias=*/false),
      reset_x_(input_dim, hidden_dim, rng),
      reset_h_(hidden_dim, hidden_dim, rng, /*bias=*/false),
      cand_x_(input_dim, hidden_dim, rng),
      cand_h_(hidden_dim, hidden_dim, rng, /*bias=*/false) {
  for (const Linear* layer :
       {&update_x_, &update_h_, &reset_x_, &reset_h_, &cand_x_, &cand_h_}) {
    Own(*layer);
  }
}

Var GruCell::Forward(const std::vector<ColBlock>& x, const Var& h) const {
  if (h == nullptr) {
    // Every h-side term is zero: h' = (1 - z) * n, with no reset gate.
    Var z = Sigmoid(update_x_.Forward(x));
    Var n = Tanh(cand_x_.Forward(x));
    return Lerp(n, Constant(kernels::NewTensor(n->value.shape())), z);
  }
  Var z = Sigmoid(Add(update_x_.Forward(x), update_h_.Forward({h})));
  Var r = Sigmoid(Add(reset_x_.Forward(x), reset_h_.Forward({h})));
  Var n = Tanh(Add(cand_x_.Forward(x), cand_h_.Forward({Mul(r, h)})));
  // h' = (1 - z) * n + z * h.
  return Lerp(n, h, z);
}

// ---------------------------------------------------------------------------
// TimeEncoder.
// ---------------------------------------------------------------------------

TimeEncoder::TimeEncoder(int64_t dim) : dim_(dim) {
  // Log-spaced frequency grid 1 / 10^(i * alpha), as in TGAT's functional
  // time encoding; trainable afterwards.
  Tensor freq({1, dim});
  for (int64_t i = 0; i < dim; ++i) {
    freq.at(i) = std::pow(10.0f, -4.0f * static_cast<float>(i) /
                                      std::max<int64_t>(dim - 1, 1));
  }
  freq_ = tensor::Parameter(std::move(freq));
  phase_ = tensor::Parameter(Tensor::Zeros({1, dim}));
  Own(freq_);
  Own(phase_);
}

Var TimeEncoder::Encode(const std::vector<float>& dt) const {
  Tensor column({static_cast<int64_t>(dt.size()), 1});
  for (size_t i = 0; i < dt.size(); ++i)
    column.at(static_cast<int64_t>(i)) = dt[i];
  // [n, 1] x [1, dim] -> [n, dim], plus the phase: cos(dt * w + b).
  return Cos(Project({Constant(std::move(column))}, freq_, phase_));
}

std::shared_ptr<const GatheredRows> TimeEncoder::EncodeRows(
    const std::vector<float>& dt) const {
  Distinct<float> deltas = Dedup(dt);
  return RowsOf(Encode(deltas.values), std::move(deltas.slot));
}

// ---------------------------------------------------------------------------
// MultiHeadAttention.
// ---------------------------------------------------------------------------

MultiHeadAttention::MultiHeadAttention(int64_t q_dim, int64_t kv_dim,
                                       int64_t model_dim, int64_t num_heads,
                                       Rng& rng)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      q_proj_(q_dim, model_dim, rng),
      k_proj_(kv_dim, model_dim, rng),
      v_proj_(kv_dim, model_dim, rng),
      out_proj_(model_dim, model_dim, rng) {
  CheckOrDie(model_dim % num_heads == 0,
             "MultiHeadAttention: model_dim must divide by num_heads "
             "(the paper's Formula (1) constraint)");
  for (const Linear* layer : {&q_proj_, &k_proj_, &v_proj_, &out_proj_}) {
    Own(*layer);
  }
}

Var MultiHeadAttention::Forward(const std::vector<ColBlock>& queries,
                                const std::vector<ColBlock>& keys,
                                const Tensor& mask, int64_t num_keys) const {
  CheckOrDie(!queries.empty(), "MultiHeadAttention: no query blocks");
  const int64_t batch = queries[0].rows();
  CheckOrDie(!keys.empty() && keys[0].rows() == batch * num_keys,
             "MultiHeadAttention: key block shape");
  CheckOrDie(mask.size() == batch * num_keys,
             "MultiHeadAttention: mask shape");
  Var q = q_proj_.Forward(queries);  // [B, model]
  // Keys double as values: both projections read the same blocks, so a
  // gathered block's unique-row index is shared by the two. Neither builds
  // its [B*K, model] rows: the attention node sums each key's rows once
  // for all heads, and its [B, model] output enters out_proj_ as one block.
  const SummedRows k = k_proj_.ForwardRows(keys);
  const SummedRows v = v_proj_.ForwardRows(keys);
  return out_proj_.Forward({Attention(q, k, v, mask, num_keys, num_heads_)});
}

}  // namespace benchtemp::tensor
