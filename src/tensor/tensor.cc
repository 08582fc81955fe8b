#include "tensor/tensor.h"

#include "runtime/grain.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/random.h"

namespace benchtemp::tensor {

namespace {

int64_t Volume(const std::vector<int64_t>& shape) {
  int64_t v = 1;
  for (int64_t d : shape) v *= d;
  return v;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  for (int64_t d : shape_) CheckOrDie(d >= 0, "negative tensor dimension");
  size_ = Volume(shape_);
  heap_.assign(static_cast<size_t>(size_), 0.0f);
  data_ = heap_.data();
}

void Tensor::CopyFrom(const Tensor& other) {
  // Always into fresh heap storage: a copy of an arena-backed tensor is how
  // values escape a TapeScope, so it must never alias the arena.
  shape_ = other.shape_;
  size_ = other.size_;
  heap_.assign(other.data_, other.data_ + other.size_);
  data_ = heap_.data();
}

void Tensor::MoveFrom(Tensor& other) noexcept {
  shape_ = std::move(other.shape_);
  heap_ = std::move(other.heap_);
  // A moved std::vector keeps its buffer, so a heap-backed `data_` stays
  // valid; an arena-backed one transfers verbatim.
  data_ = other.data_;
  size_ = other.size_;
  other.shape_.clear();
  other.heap_.clear();
  other.data_ = nullptr;
  other.size_ = 0;
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  return Full(std::move(shape), 1.0f);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.at(i) = rng.Normal(0.0f, stddev);
  return t;
}

Tensor Tensor::Uniform(std::vector<int64_t> shape, Rng& rng, float lo,
                       float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.at(i) = rng.UniformReal(lo, hi);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> data) {
  CheckOrDie(Volume(shape) == static_cast<int64_t>(data.size()),
             "FromVector: payload size does not match shape volume");
  Tensor t;
  t.shape_ = std::move(shape);
  t.heap_ = std::move(data);
  t.data_ = t.heap_.data();
  t.size_ = static_cast<int64_t>(t.heap_.size());
  return t;
}

int64_t Tensor::rows() const {
  if (shape_.empty()) return 0;
  return shape_[0];
}

int64_t Tensor::cols() const {
  if (shape_.size() < 2) return shape_.empty() ? 0 : 1;
  int64_t c = 1;
  for (size_t i = 1; i < shape_.size(); ++i) c *= shape_[i];
  return c;
}

void Tensor::Fill(float value) {
  // Gradient clears and loss-seed broadcasts fill multi-megabyte tensors
  // every batch; route the bandwidth-bound ones through the vectorized
  // kernel, split over the pool. Every chunk writes the same constant, so
  // the result is chunking-independent.
  if (size_ < runtime::kElementwiseGrain) {
    kernels::FillOut(data_, value, size_);
    return;
  }
  float* d = data_;
  runtime::ParallelFor(0, size_, runtime::kElementwiseGrain,
                       [d, value](int64_t lo, int64_t hi) {
                         kernels::FillOut(d + lo, value, hi - lo);
                       });
}

void Tensor::Scale(float s) {
  for (int64_t i = 0; i < size_; ++i) data_[i] *= s;
}

std::string Tensor::ShapeString() const {
  std::string out = "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shape_[i]);
  }
  out += "]";
  return out;
}

}  // namespace benchtemp::tensor
