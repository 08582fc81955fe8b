#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "runtime/grain.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/kernels.h"

namespace benchtemp::tensor::kernels {

namespace {

/// Register-tile height: rows of the output computed together so one
/// streamed B (or dC) row is reused MR times from registers.
constexpr int64_t kMr = 4;

/// k-dimension cache block: a kKc x m panel of B (64 x 172 floats = 43 KB
/// worst case at model shapes) stays hot in L1/L2 while every row of the
/// chunk consumes it.
constexpr int64_t kKc = 64;

/// Forward chunk body: C[i0..i1) += A * B, kKc-blocked over k with an
/// MR-row register tile. Each C element accumulates in strictly increasing
/// k order (the fixed reduction tree of the GEMM family), so any thread
/// count produces identical bits.
inline void GemmChunk(const float* a, const float* b, float* c, int64_t i0,
                      int64_t i1, int64_t k, int64_t m) {
  for (int64_t pp = 0; pp < k; pp += kKc) {
    const int64_t pe = std::min(pp + kKc, k);
    int64_t i = i0;
    for (; i + kMr <= i1; i += kMr) {
      for (int64_t p = pp; p < pe; ++p) {
        const float a0 = a[(i + 0) * k + p];
        const float a1 = a[(i + 1) * k + p];
        const float a2 = a[(i + 2) * k + p];
        const float a3 = a[(i + 3) * k + p];
        const float* brow = b + p * m;
        float* c0 = c + (i + 0) * m;
        float* c1 = c + (i + 1) * m;
        float* c2 = c + (i + 2) * m;
        float* c3 = c + (i + 3) * m;
        for (int64_t j = 0; j < m; ++j) {
          c0[j] += a0 * brow[j];
          c1[j] += a1 * brow[j];
          c2[j] += a2 * brow[j];
          c3[j] += a3 * brow[j];
        }
      }
    }
    for (; i < i1; ++i) {
      float* crow = c + i * m;
      for (int64_t p = pp; p < pe; ++p) {
        const float av = a[i * k + p];
        const float* brow = b + p * m;
        for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// Striped-lane dot of two contiguous spans, inlined into GemmNT's inner
/// loop: the same lane tree as the public Dot, so a dA entry carries the
/// same bits Dot would give it.
inline float DotBody(const float* x, const float* y, int64_t n) {
  float lanes[kLanes] = {};
  const int64_t main = n / kLanes * kLanes;
  for (int64_t i = 0; i < main; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) lanes[l] += x[i + l] * y[i + l];
  }
  for (int64_t i = main; i < n; ++i) lanes[i - main] += x[i] * y[i];
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Backward-for-A chunk: dA rows [i0, i1), each entry a row-vs-row dot.
inline void GemmNTChunk(const float* dc, const float* b, float* da,
                        int64_t i0, int64_t i1, int64_t k, int64_t m) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* dcrow = dc + i * m;
    float* darow = da + i * k;
    for (int64_t l = 0; l < k; ++l) darow[l] += DotBody(dcrow, b + l * m, m);
  }
}

/// Backward-for-B chunk: dB rows [l0, l1) accumulate over samples i in
/// fixed increasing order; an MR-row tile of dB shares each streamed dC
/// row, and the A operands for the tile are contiguous (a[i*k + l..l+3]).
inline void GemmTNChunk(const float* a, const float* dc, float* db,
                        int64_t l0, int64_t l1, int64_t n, int64_t k,
                        int64_t m) {
  int64_t l = l0;
  for (; l + kMr <= l1; l += kMr) {
    float* d0 = db + (l + 0) * m;
    float* d1 = db + (l + 1) * m;
    float* d2 = db + (l + 2) * m;
    float* d3 = db + (l + 3) * m;
    for (int64_t i = 0; i < n; ++i) {
      const float* arow = a + i * k + l;
      const float a0 = arow[0];
      const float a1 = arow[1];
      const float a2 = arow[2];
      const float a3 = arow[3];
      const float* dcrow = dc + i * m;
      for (int64_t j = 0; j < m; ++j) {
        d0[j] += a0 * dcrow[j];
        d1[j] += a1 * dcrow[j];
        d2[j] += a2 * dcrow[j];
        d3[j] += a3 * dcrow[j];
      }
    }
  }
  for (; l < l1; ++l) {
    float* drow = db + l * m;
    for (int64_t i = 0; i < n; ++i) {
      const float av = a[i * k + l];
      const float* dcrow = dc + i * m;
      for (int64_t j = 0; j < m; ++j) drow[j] += av * dcrow[j];
    }
  }
}

}  // namespace

void CountFlops(int64_t flops) {
  if (obs::MetricRegistry::Enabled()) {
    obs::MetricRegistry::Global().Add(obs::Counter::kKernelFlops, flops);
  }
}

void Gemm(const float* a, const float* b, float* c, int64_t n, int64_t k,
          int64_t m) {
  CountFlops(2 * n * k * m);
  runtime::ParallelFor(0, n, runtime::RowGrain(k * m),
                       [&](int64_t i0, int64_t i1) {
                         GemmChunk(a, b, c, i0, i1, k, m);
                       });
}

void GemmNT(const float* dc, const float* b, float* da, int64_t n, int64_t k,
            int64_t m) {
  CountFlops(2 * n * k * m);
  runtime::ParallelFor(0, n, runtime::RowGrain(k * m),
                       [&](int64_t i0, int64_t i1) {
                         GemmNTChunk(dc, b, da, i0, i1, k, m);
                       });
}

void GemmTN(const float* a, const float* dc, float* db, int64_t n, int64_t k,
            int64_t m) {
  CountFlops(2 * n * k * m);
  runtime::ParallelFor(0, k, runtime::RowGrain(n * m),
                       [&](int64_t l0, int64_t l1) {
                         GemmTNChunk(a, dc, db, l0, l1, n, k, m);
                       });
}

}  // namespace benchtemp::tensor::kernels
