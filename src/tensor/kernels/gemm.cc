#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "runtime/grain.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/kernels.h"

namespace benchtemp::tensor::kernels {

namespace {

/// Register-tile height: output rows computed together, so each loaded B
/// (or dC) vector is reused kMr times from registers. A Gemm/GemmTN tile
/// is kMr rows x kLanes columns of the output, held in registers over the
/// whole reduction and written once.
constexpr int64_t kMr = 4;

/// GemmTN sample block: kNb rows of dC (kNb x m floats, 24 KB at m=24)
/// and the chunk's columns of the same rows of A stay cache-resident while
/// every dB tile of the chunk consumes them.
constexpr int64_t kNb = 256;

/// Four floats: the widest vector the baseline x86-64 target keeps in a
/// register (a wider generic vector is lowered through the stack there).
/// A tile row of kLanes columns is kVecs of them; GemmNT computes kVecW
/// consecutive dA entries together, one vector lane per entry.
constexpr int64_t kVecW = 4;
constexpr int64_t kVecs = kLanes / kVecW;
using Vec = float __attribute__((vector_size(kVecW * sizeof(float))));

// Unaligned loads and stores.
inline Vec LoadVec(const float* p) {
  Vec v{};
  std::memcpy(&v, p, sizeof(Vec));
  return v;
}
inline void Store(float* p, Vec v) { std::memcpy(p, &v, sizeof(Vec)); }

/// Chunk size of the row-tiled kernels: the shared RowGrain rounded up to
/// a multiple of kMr, so every chunk but the last is whole tiles. At model
/// shapes RowGrain alone is 1 (n*m >= kChunkFlops), which would leave
/// every chunk a single row and the tile unused.
inline int64_t TileGrain(int64_t flops_per_row) {
  return (runtime::RowGrain(flops_per_row) + kMr - 1) / kMr * kMr;
}

/// The register tile shared by Gemm and GemmTN, over R output rows:
///
///   out[r*m + j] += sum over q in [q0, q1) of x[r*rs + q*qs] * y[q*m + j]
///
/// Each kLanes-column slice of the R rows is loaded once, held in
/// registers while it accumulates every q in increasing order, and stored
/// once; the m % kLanes trailing columns run the same loop one column at a
/// time. So every output element adds its products one by one, in
/// increasing q, to its prior value: the order is independent of the
/// tiling, the chunking and the thread count.
template <int64_t R>
inline void TileRows(const float* x, int64_t rs, int64_t qs, const float* y,
                     float* out, int64_t q0, int64_t q1, int64_t m) {
  const int64_t mv = m / kLanes * kLanes;
  for (int64_t j = 0; j < mv; j += kLanes) {
    Vec t[R][kVecs];
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t v = 0; v < kVecs; ++v) {
        t[r][v] = LoadVec(out + r * m + j + v * kVecW);
      }
    }
    for (int64_t q = q0; q < q1; ++q) {
      Vec yv[kVecs];
      for (int64_t v = 0; v < kVecs; ++v) {
        yv[v] = LoadVec(y + q * m + j + v * kVecW);
      }
      for (int64_t r = 0; r < R; ++r) {
        const float xv = x[r * rs + q * qs];
        for (int64_t v = 0; v < kVecs; ++v) t[r][v] += xv * yv[v];
      }
    }
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t v = 0; v < kVecs; ++v) {
        Store(out + r * m + j + v * kVecW, t[r][v]);
      }
    }
  }
  for (int64_t j = mv; j < m; ++j) {
    float t[R];
    for (int64_t r = 0; r < R; ++r) t[r] = out[r * m + j];
    for (int64_t q = q0; q < q1; ++q) {
      const float yv = y[q * m + j];
      for (int64_t r = 0; r < R; ++r) t[r] += x[r * rs + q * qs] * yv;
    }
    for (int64_t r = 0; r < R; ++r) out[r * m + j] = t[r];
  }
}

/// Forward chunk body: C rows [i0, i1) += A * B, kMr rows per tile, each
/// C element summed over p = 0..k-1 in increasing order.
inline void GemmChunk(const float* a, const float* b, float* c, int64_t i0,
                      int64_t i1, int64_t k, int64_t m) {
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    TileRows<kMr>(a + i * k, k, 1, b, c + i * m, 0, k, m);
  }
  for (; i < i1; ++i) TileRows<1>(a + i * k, k, 1, b, c + i * m, 0, k, m);
}

/// Backward-for-A chunk: dA rows [i0, i1), each entry a striped-lane dot
/// of dC row i and B row l with the same tree as the public Dot: lane
/// j % kLanes adds its products in increasing j from +0, and the lanes
/// combine pairwise. kVecW consecutive l run together, one vector lane
/// each, so every lane of the tree is a vector over l. They read bp, B
/// packed as B^T panels: panel g holds bp[g*kVecW*mp + j*kVecW + r] =
/// B[g*kVecW + r, j], with l rounded up to kp and j to mp (multiples of
/// kVecW and kLanes) and the padding zero-filled. A padded term adds
/// +0 * +0 = +0 to a lane, which leaves it unchanged: a lane starts at +0,
/// and a round-to-nearest sum is -0 only when both addends are, so no lane
/// is ever -0. Padded l are computed and dropped.
inline void GemmNTChunk(const float* dc, const float* bp, float* da,
                        int64_t i0, int64_t i1, int64_t k, int64_t kp,
                        int64_t m, int64_t mp) {
  std::vector<float> x(static_cast<size_t>(mp), 0.0f);
  for (int64_t i = i0; i < i1; ++i) {
    std::copy(dc + i * m, dc + (i + 1) * m, x.begin());
    float* darow = da + i * k;
    for (int64_t l = 0; l < kp; l += kVecW) {
      const float* panel = bp + l * mp;
      Vec lanes[kLanes] = {};
      for (int64_t j = 0; j < mp; j += kLanes) {
        for (int64_t r = 0; r < kLanes; ++r) {
          lanes[r] += x[j + r] * LoadVec(panel + (j + r) * kVecW);
        }
      }
      const Vec sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                      ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
      if (l + kVecW <= k) {
        Store(darow + l, LoadVec(darow + l) + sum);
      } else {
        for (int64_t r = 0; l + r < k; ++r) darow[l + r] += sum[r];
      }
    }
  }
}

/// Backward-for-B chunk: dB rows [l0, l1) += A^T * dC, kMr rows per tile.
/// The sample loop runs in kNb blocks, so a block of dC and A stays in
/// cache while every tile of the chunk consumes it; a tile's A operands
/// are contiguous (a[i*k + l..l+kMr)). Each dB element adds its samples
/// in strictly increasing i, block after block, to its prior value.
inline void GemmTNChunk(const float* a, const float* dc, float* db,
                        int64_t l0, int64_t l1, int64_t n, int64_t k,
                        int64_t m) {
  for (int64_t ib = 0; ib < n; ib += kNb) {
    const int64_t ie = std::min(ib + kNb, n);
    int64_t l = l0;
    for (; l + kMr <= l1; l += kMr) {
      TileRows<kMr>(a + l, 1, k, dc, db + l * m, ib, ie, m);
    }
    for (; l < l1; ++l) TileRows<1>(a + l, 1, k, dc, db + l * m, ib, ie, m);
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
  runtime::ParallelFor(0, n, TileGrain(k * m), [&](int64_t i0, int64_t i1) {
    GemmChunk(a, b, c, i0, i1, k, m);
  });
}

void GemmNT(const float* dc, const float* b, float* da, int64_t n, int64_t k,
            int64_t m) {
  CountFlops(2 * n * k * m);
  const int64_t kp = (k + kVecW - 1) / kVecW * kVecW;
  const int64_t mp = (m + kLanes - 1) / kLanes * kLanes;
  std::vector<float> bp(static_cast<size_t>(kp * mp), 0.0f);
  for (int64_t l = 0; l < k; ++l) {
    float* dst = bp.data() + l / kVecW * kVecW * mp + l % kVecW;
    for (int64_t j = 0; j < m; ++j) dst[j * kVecW] = b[l * m + j];
  }
  runtime::ParallelFor(0, n, runtime::RowGrain(k * m),
                       [&](int64_t i0, int64_t i1) {
                         GemmNTChunk(dc, bp.data(), da, i0, i1, k, kp, m, mp);
                       });
}

void GemmTN(const float* a, const float* dc, float* db, int64_t n, int64_t k,
            int64_t m) {
  CountFlops(2 * n * k * m);
  runtime::ParallelFor(0, k, TileGrain(n * m), [&](int64_t l0, int64_t l1) {
    GemmTNChunk(a, dc, db, l0, l1, n, k, m);
  });
}

}  // namespace benchtemp::tensor::kernels
