#ifndef BENCHTEMP_TENSOR_TENSOR_H_
#define BENCHTEMP_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/check.h"

namespace benchtemp::tensor {

class Rng;

namespace kernels {
class ArenaAccess;
}  // namespace kernels

/// A dense row-major float32 tensor with value semantics (copies are deep).
///
/// The library only needs rank-1 and rank-2 tensors; higher ranks are
/// represented by flattening into rank-2 (e.g. a [B, K, D] neighbor block is
/// stored as [B*K, D]).
///
/// Storage: a tensor either owns a heap buffer (the default — safe to hold
/// for any lifetime) or views a span handed out by the tape-scoped arena
/// (`kernels::NewTensor`, valid only until the enclosing `TapeScope`
/// rewinds). Copies always deep-copy into fresh heap storage, so snapshots
/// (`Constant` copies, checkpoints, best-epoch params, memory tables) never
/// alias arena memory; moves transfer the backing as-is.
class Tensor {
 public:
  /// An empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// A zero-filled heap tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  Tensor(const Tensor& other) { CopyFrom(other); }
  Tensor& operator=(const Tensor& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Tensor(Tensor&& other) noexcept { MoveFrom(other); }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  /// Factory helpers.
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// Normal(0, stddev) entries.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng,
                      float stddev = 1.0f);
  /// Uniform [lo, hi) entries.
  static Tensor Uniform(std::vector<int64_t> shape, Rng& rng, float lo,
                        float hi);
  /// Wraps an explicit payload; `data.size()` must equal the shape volume.
  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> data);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t size() const { return size_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  bool empty() const { return size_ == 0; }

  /// Number of rows / columns when viewed as a matrix. A rank-1 tensor of
  /// length n is viewed as [n, 1].
  int64_t rows() const;
  int64_t cols() const;

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& at(int64_t i) { return data_[i]; }
  float at(int64_t i) const { return data_[i]; }
  /// Matrix-style indexing; only valid for rank-2 tensors.
  float& at(int64_t r, int64_t c) { return data_[r * shape_[1] + c]; }
  float at(int64_t r, int64_t c) const { return data_[r * shape_[1] + c]; }

  /// Sets every entry to `value`.
  void Fill(float value);
  /// Multiplies every entry by `s`.
  void Scale(float s);

  /// True when the storage lives in a tape-scoped arena (test/debug
  /// introspection; such a tensor dies with its TapeScope).
  bool arena_backed() const { return data_ != nullptr && heap_.empty(); }

  /// "[2, 3]"-style shape string for error messages.
  std::string ShapeString() const;

 private:
  friend class kernels::ArenaAccess;

  void CopyFrom(const Tensor& other);
  void MoveFrom(Tensor& other) noexcept;

  std::vector<int64_t> shape_;
  /// Owned storage; empty for arena-backed tensors.
  std::vector<float> heap_;
  /// Payload pointer: `heap_.data()` or an arena span.
  float* data_ = nullptr;
  int64_t size_ = 0;
};

/// Aborts with a message if `condition` is false. Used for programmer errors
/// (shape mismatches etc.); the library does not throw exceptions. The
/// implementation lives in base/check.h so layers below tensor (the runtime
/// pool) can assert invariants without an upward include.
using base::CheckOrDie;

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_TENSOR_H_
