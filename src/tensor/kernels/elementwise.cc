#include <cmath>
#include <cstdint>

#include "tensor/kernels/kernels.h"
#include "tensor/numeric.h"

namespace benchtemp::tensor::kernels {

namespace {

inline float StableSigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

}  // namespace

// Each primitive is one plain loop the compiler autovectorizes (this file
// is built with -O3 -ffp-contract=off). Reductions stripe over kLanes
// accumulators — lane l owns x[l], x[l + kLanes], ... — and combine the
// lanes in a fixed pairwise order: the reduction tree of the determinism
// contract.

void Add(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}
void MulAdd(float* y, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}
void Axpy(float* y, float s, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += s * x[i];
}
void AddScalar(float* y, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += s;
}
void Set(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i];
}
void SumRowTerms(float* y, const RowTerm* terms, int64_t t, const float* bias,
                 int64_t first, int64_t n, int64_t m, int64_t d) {
  // Four columns at a time are held in registers across the terms and
  // stored once; the d % 4 trailing columns run one at a time.
  constexpr int64_t kW = 4;
  for (int64_t r = first; r < first + n; ++r) {
    float* yr = y + (r - first) * d;
    int64_t c0 = 0;
    for (; c0 + kW <= d; c0 += kW) {
      float acc[kW] = {};
      for (int64_t j = 0; j < t; ++j) {
        const int32_t* slot = terms[j].slot;
        const float* xr =
            terms[j].rows + (slot != nullptr ? int64_t{slot[r]} : r) * m + c0;
        for (int64_t l = 0; l < kW; ++l) acc[l] += xr[l];
      }
      if (bias != nullptr) {
        for (int64_t l = 0; l < kW; ++l) acc[l] += bias[c0 + l];
      }
      for (int64_t l = 0; l < kW; ++l) yr[c0 + l] = acc[l];
    }
    for (; c0 < d; ++c0) {
      float acc = 0.0f;
      for (int64_t j = 0; j < t; ++j) {
        const int32_t* slot = terms[j].slot;
        acc += terms[j].rows[(slot != nullptr ? int64_t{slot[r]} : r) * m + c0];
      }
      if (bias != nullptr) acc += bias[c0];
      yr[c0] = acc;
    }
  }
}
void ScatterRowTerms(const GradRowTerm* terms, int64_t t, float* bias,
                     const float* scale, const float* x, int64_t first,
                     int64_t n, int64_t m, int64_t d) {
  for (int64_t r = first; r < first + n; ++r) {
    const float s = scale[r - first];
    if (IsExactlyZero(s)) continue;
    for (int64_t j = 0; j < t; ++j) {
      const int32_t* slot = terms[j].slot;
      float* yr = terms[j].rows + (slot != nullptr ? int64_t{slot[r]} : r) * m;
      for (int64_t c = 0; c < d; ++c) yr[c] += s * x[c];
    }
    if (bias == nullptr) continue;
    for (int64_t c = 0; c < d; ++c) bias[c] += s * x[c];
  }
}
void FillOut(float* y, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = v;
}
void AddOut(float* y, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}
void MulOut(float* y, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}
void ScaleOut(float* y, float s, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = s * x[i];
}
void AddScalarOut(float* y, float s, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] + s;
}

void SigmoidForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = StableSigmoid(x[i]);
}
void SigmoidBackward(float* gx, const float* gy, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) gx[i] += gy[i] * y[i] * (1.0f - y[i]);
}

float ReduceSum(const float* x, int64_t n) {
  float lanes[kLanes] = {};
  const int64_t main = n / kLanes * kLanes;
  for (int64_t i = 0; i < main; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) lanes[l] += x[i + l];
  }
  for (int64_t i = main; i < n; ++i) lanes[i - main] += x[i];
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

float Dot(const float* a, const float* b, int64_t n) {
  float lanes[kLanes] = {};
  const int64_t main = n / kLanes * kLanes;
  for (int64_t i = 0; i < main; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) lanes[l] += a[i + l] * b[i + l];
  }
  for (int64_t i = main; i < n; ++i) lanes[i - main] += a[i] * b[i];
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

void SoftmaxRow(const float* in, const float* mask, int64_t d, float* out) {
  // Masked max: float max is associative and commutative, so no lane tree
  // is needed for determinism; the serial scan is also the branch-friendly
  // form for the sparse masks attention produces.
  float max_val = -1e30f;
  bool any = false;
  for (int64_t c = 0; c < d; ++c) {
    if (mask != nullptr && IsExactlyZero(mask[c])) continue;
    any = true;
    max_val = std::max(max_val, in[c]);
  }
  if (!any) {
    for (int64_t c = 0; c < d; ++c) out[c] = 0.0f;
    return;
  }
  for (int64_t c = 0; c < d; ++c) {
    if (mask != nullptr && IsExactlyZero(mask[c])) {
      out[c] = 0.0f;
    } else {
      out[c] = std::exp(in[c] - max_val);
    }
  }
  // Masked entries hold exact +0 and exp(x) >= 0, so including them in the
  // striped sum cannot change the normalizer's bits.
  const float total = ReduceSum(out, d);
  for (int64_t c = 0; c < d; ++c) out[c] /= total;
}

float BceForwardMean(const float* logits, const float* targets, int64_t n) {
  float lanes[kLanes] = {};
  for (int64_t i = 0; i < n; ++i) {
    const float x = logits[i];
    // log(1 + exp(x)) computed stably.
    const float softplus =
        x > 0.0f ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
    lanes[i % kLanes] += softplus - x * targets[i];
  }
  const float total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                      ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  return total / static_cast<float>(n);
}

void BceBackward(float* g, const float* logits, const float* targets,
                 float seed, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    g[i] += seed * (StableSigmoid(logits[i]) - targets[i]);
  }
}

}  // namespace benchtemp::tensor::kernels
