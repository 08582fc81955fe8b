#include "tensor/optimizer.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "tensor/numeric.h"

namespace benchtemp::tensor {

namespace {

constexpr char kAdamMagic[4] = {'B', 'T', 'A', 'D'};

void WriteU64(std::ostream& out, uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

bool ReadU64(std::istream& in, uint64_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

void WriteTensorPayload(std::ostream& out, const Tensor& t) {
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
}

bool ReadTensorPayload(std::istream& in, std::vector<float>* staged,
                       int64_t size) {
  staged->resize(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(staged->data()),
          static_cast<std::streamsize>(size * sizeof(float)));
  return static_cast<bool>(in);
}

}  // namespace

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    VarNode& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (int64_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad.at(j);
      m.at(j) = beta1_ * m.at(j) + (1.0f - beta1_) * g;
      v.at(j) = beta2_ * v.at(j) + (1.0f - beta2_) * g * g;
      const float m_hat = m.at(j) / bias1;
      const float v_hat = v.at(j) / bias2;
      p.value.at(j) -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

void Adam::ZeroGrad() { tensor::ZeroGrad(params_); }

std::string Adam::SnapshotState() const {
  std::ostringstream out(std::ios::binary);
  out.write(kAdamMagic, sizeof(kAdamMagic));
  WriteU64(out, static_cast<uint64_t>(t_));
  WriteU64(out, m_.size());
  for (size_t i = 0; i < m_.size(); ++i) {
    WriteU64(out, static_cast<uint64_t>(m_[i].size()));
    WriteTensorPayload(out, m_[i]);
    WriteTensorPayload(out, v_[i]);
  }
  return out.str();
}

bool Adam::RestoreState(const std::string& blob) {
  std::istringstream in(blob, std::ios::binary);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kAdamMagic, sizeof(kAdamMagic)) != 0) {
    return false;
  }
  uint64_t step = 0, count = 0;
  if (!ReadU64(in, &step)) return false;
  if (!ReadU64(in, &count) || count != m_.size()) return false;
  // Stage everything before mutating so a truncated stream cannot leave a
  // half-restored optimizer.
  std::vector<std::vector<float>> staged_m(m_.size()), staged_v(v_.size());
  for (size_t i = 0; i < m_.size(); ++i) {
    uint64_t size = 0;
    if (!ReadU64(in, &size) ||
        size != static_cast<uint64_t>(m_[i].size())) {
      return false;
    }
    if (!ReadTensorPayload(in, &staged_m[i], m_[i].size())) return false;
    if (!ReadTensorPayload(in, &staged_v[i], v_[i].size())) return false;
  }
  t_ = static_cast<int64_t>(step);
  for (size_t i = 0; i < m_.size(); ++i) {
    for (int64_t j = 0; j < m_[i].size(); ++j) {
      m_[i].at(j) = staged_m[i][static_cast<size_t>(j)];
      v_[i].at(j) = staged_v[i][static_cast<size_t>(j)];
    }
  }
  return true;
}

bool AllFinite(const Tensor& t) {
  for (int64_t j = 0; j < t.size(); ++j) {
    if (!std::isfinite(t.at(j))) return false;
  }
  return true;
}

bool ParamsFinite(const std::vector<Var>& params) {
  for (const Var& p : params) {
    if (!AllFinite(p->value)) return false;
  }
  return true;
}

bool GradsFinite(const std::vector<Var>& params) {
  for (const Var& p : params) {
    if (!AllFinite(p->grad)) return false;
  }
  return true;
}

void ClipGradNorm(const std::vector<Var>& params, float max_norm) {
  double total = 0.0;
  for (const Var& p : params) {
    for (int64_t j = 0; j < p->grad.size(); ++j) {
      total += static_cast<double>(p->grad.at(j)) * p->grad.at(j);
    }
  }
  const double norm = std::sqrt(total);
  if (norm <= max_norm || IsExactlyZero(norm)) return;
  const float scale = max_norm / static_cast<float>(norm);
  for (const Var& p : params) p->grad.Scale(scale);
}

}  // namespace benchtemp::tensor
