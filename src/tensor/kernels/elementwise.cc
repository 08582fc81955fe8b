#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernels.h"
#include "tensor/numeric.h"

namespace benchtemp::tensor::kernels {

namespace {

// Four-float vectors (GCC/Clang vector extensions), as the GEMM tiles use.
constexpr int64_t kVecW = 4;
using Vec = float __attribute__((vector_size(kVecW * sizeof(float))));

inline Vec LoadVec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(Vec));
  return v;
}
inline void StoreVec(float* p, Vec v) { std::memcpy(p, &v, sizeof(Vec)); }

inline float StableSigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

}  // namespace

// Each primitive but SumRowTerms (whose column groups are vectors) is one
// plain loop the compiler autovectorizes (this file is built with -O3
// -ffp-contract=off). Reductions stripe over kLanes accumulators — lane l
// owns x[l], x[l + kLanes], ... — and combine the lanes in a fixed
// pairwise order: the reduction tree of the determinism contract.

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
                 int64_t first, int64_t n, int64_t m) {
  // Each key's term rows are resolved once, kT at a time. Eight columns
  // are held in two four-float vectors across a pass's terms and stored
  // once; a later pass (more than kT terms) continues from the stored
  // partial sums, which hold the same bits. The m % 8 trailing columns run
  // one at a time.
  constexpr int64_t kT = 8;
  for (int64_t r = first; r < first + n; ++r) {
    float* yr = y + (r - first) * m;
    for (int64_t j0 = 0; j0 == 0 || j0 < t; j0 += kT) {
      const int64_t tj = std::min(kT, t - j0);
      const float* xr[kT];
      for (int64_t j = 0; j < tj; ++j) {
        const int32_t* slot = terms[j0 + j].slot;
        xr[j] = terms[j0 + j].rows +
                (slot != nullptr ? int64_t{slot[r]} : r) * m;
      }
      const float* br = j0 + kT >= t ? bias : nullptr;
      int64_t c = 0;
      for (; c + 2 * kVecW <= m; c += 2 * kVecW) {
        Vec lo = j0 == 0 ? Vec{} : LoadVec(yr + c);
        Vec hi = j0 == 0 ? Vec{} : LoadVec(yr + c + kVecW);
        for (int64_t j = 0; j < tj; ++j) {
          lo += LoadVec(xr[j] + c);
          hi += LoadVec(xr[j] + c + kVecW);
        }
        if (br != nullptr) {
          lo += LoadVec(br + c);
          hi += LoadVec(br + c + kVecW);
        }
        StoreVec(yr + c, lo);
        StoreVec(yr + c + kVecW, hi);
      }
      for (; c < m; ++c) {
        float acc = j0 == 0 ? 0.0f : yr[c];
        for (int64_t j = 0; j < tj; ++j) acc += xr[j][c];
        if (br != nullptr) acc += br[c];
        yr[c] = acc;
      }
    }
  }
}
void ScatterRowTerms(const GradRowTerm* terms, int64_t t, float* bias,
                     const float* scale, int64_t heads, const float* x,
                     int64_t first, int64_t n, int64_t m) {
  const int64_t d = m / heads;
  for (int64_t r = first; r < first + n; ++r) {
    for (int64_t h = 0; h < heads; ++h) {
      const float s = scale[h * n + (r - first)];
      if (IsExactlyZero(s)) continue;
      const int64_t c0 = h * d;
      for (int64_t j = 0; j < t; ++j) {
        const int32_t* slot = terms[j].slot;
        float* yr = terms[j].rows +
                    (slot != nullptr ? int64_t{slot[r]} : r) * m + c0;
        for (int64_t c = 0; c < d; ++c) yr[c] += s * x[c0 + c];
      }
      if (bias == nullptr) continue;
      for (int64_t c = 0; c < d; ++c) bias[c0 + c] += s * x[c0 + c];
    }
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

void SigmoidForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = StableSigmoid(x[i]);
}
void SigmoidBackward(float* gx, const float* gy, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) gx[i] += gy[i] * y[i] * (1.0f - y[i]);
}
void ReluForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void ReluBackward(float* gx, const float* gy, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) gx[i] += gy[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
}

void LerpOut(float* y, const float* a, const float* b, const float* w,
             int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = (1.0f - w[i]) * a[i] + w[i] * b[i];
}
void LerpOut(float* y, const float* a, const float* b, float w, int64_t n) {
  const float u = 1.0f - w;
  for (int64_t i = 0; i < n; ++i) y[i] = u * a[i] + w * b[i];
}
void LerpBackward(float* gw, float* ga, float* gb, const float* g,
                  const float* a, const float* b, const float* w, int64_t n) {
  // One loop per gradient, in the eager tape's order, so each entry sees
  // that order even when two gradients are one buffer.
  if (gw != nullptr) {
    for (int64_t i = 0; i < n; ++i) gw[i] += g[i] * b[i];
  }
  if (gb != nullptr) {
    for (int64_t i = 0; i < n; ++i) gb[i] += g[i] * w[i];
  }
  if (ga != nullptr) {
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * (1.0f - w[i]);
  }
  if (gw != nullptr) {
    for (int64_t i = 0; i < n; ++i) gw[i] += (g[i] * a[i]) * -1.0f;
  }
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
