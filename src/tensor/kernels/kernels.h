#ifndef BENCHTEMP_TENSOR_KERNELS_KERNELS_H_
#define BENCHTEMP_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

// Compute-kernel layer of the tensor stack (see DESIGN.md "Kernel layer &
// tensor arena"). Two families:
//
//   - GEMM entry points (Gemm / GemmNT / GemmTN): register-tiled matrix
//     kernels that hold each output tile in registers over its whole
//     reduction and write it once. They parallelize internally over
//     disjoint output row blocks using runtime::ParallelFor with the
//     shared runtime::RowGrain chunk policy (Gemm and GemmTN round it up
//     to whole row tiles).
//   - Chunk-level elementwise/reduction primitives: serial over the span
//     they are given; callers keep their own ParallelFor structure and
//     invoke these on [lo, hi) sub-spans, so the chunking (and therefore
//     the obs ParallelFor counters) is unchanged by the kernel layer.
//
// Every elementwise primitive is one plain fixed-width loop the compiler
// autovectorizes; the GEMM tiles and SumRowTerms' eight-column groups are
// written with GCC/Clang vector extensions (four-float vectors, no
// intrinsics). The kernel translation
// units are built with -O3 -ffp-contract=off, so no a*b+c is ever
// contracted into an FMA. Each primitive executes a fixed accumulation
// tree — reductions stripe over kLanes accumulators combined in a fixed
// pairwise order, Gemm and GemmTN accumulate each output element in
// strictly increasing inner-dimension order, GemmNT adds one Dot-style
// lane tree per element — and chunk boundaries come from
// runtime::RowGrain, so results are bit-identical across thread counts.
//
// Raw pointers only: this layer is the hot path, and the btlint
// `hot-loop-at` rule rejects bounds-checked `.at(` inside it.

namespace benchtemp::tensor::kernels {

/// Lane width of every striped reduction. Eight float32 lanes cover one
/// AVX register (or two SSE registers) without committing to either ISA.
inline constexpr int kLanes = 8;

// ---------------------------------------------------------------------------
// GEMM family (row-major, contiguous; output is accumulated into, so
// callers zero-fill for plain assignment). Parallel over output rows.
//
// Order contract: each output element has one fixed reduction order,
// whatever the tiling, chunking or thread count, and tests/kernels_test.cc
// checks it bit for bit against loops that spell it out.
// ---------------------------------------------------------------------------

/// C[n,m] += A[n,k] * B[k,m]. Each C element adds its products
/// a[i,p] * b[p,j] one at a time, p = 0..k-1, to its prior value.
void Gemm(const float* a, const float* b, float* c, int64_t n, int64_t k,
          int64_t m);

/// dA[n,k] += dC[n,m] * B[k,m]^T — Project's backward pass for a block. Each
/// dA entry adds one striped-lane dot of two contiguous rows (lane j % 8
/// sums its products in increasing j; lanes combine pairwise), the same
/// tree as Dot.
void GemmNT(const float* dc, const float* b, float* da, int64_t n, int64_t k,
            int64_t m);

/// dB[k,m] += A[n,k]^T * dC[n,m] — Project's backward pass for the weight.
/// Parallel over rows of dB; each dB element adds its products
/// a[i,l] * dc[i,j] one at a time, i = 0..n-1, to its prior value.
void GemmTN(const float* a, const float* dc, float* db, int64_t n, int64_t k,
            int64_t m);

// ---------------------------------------------------------------------------
// Chunk-level reductions (fixed kLanes-striped accumulation tree).
// ---------------------------------------------------------------------------

/// Sum of x[0..n).
float ReduceSum(const float* x, int64_t n);

/// Dot product of a[0..n) and b[0..n).
float Dot(const float* a, const float* b, int64_t n);

// ---------------------------------------------------------------------------
// Chunk-level elementwise primitives (y is the destination span).
// ---------------------------------------------------------------------------

void Add(float* y, const float* x, int64_t n);     // y[i] += x[i]
void MulAdd(float* y, const float* a, const float* b, int64_t n);  // y+=a*b
void Axpy(float* y, float s, const float* x, int64_t n);  // y[i] += s*x[i]
void AddScalar(float* y, float s, int64_t n);      // y[i] += s
void Set(float* y, const float* x, int64_t n);     // y[i] = x[i]
void FillOut(float* y, float v, int64_t n);        // y[i] = v

/// One term of a summed row: key r reads row slot[r] of `rows` (row r when
/// `slot` is null); rows are m floats apart.
struct RowTerm {
  const float* rows;
  const int32_t* slot;
};
/// y[r - first, :] = (((+0 + T_0) + T_1) + ...) + bias over the m floats
/// of each key r's term rows T_j, for r in [first, first + n); y is
/// [n, m] and a null bias adds nothing. Each element adds its terms one at
/// a time in term order and the bias last, so a column's bits do not
/// depend on which other columns are summed with it. Each key's term rows
/// are resolved once for its whole row. Project's row pass sums its output
/// rows with it in place (y is then a dense term's rows: each row reads a
/// column before it stores it), and Attention and BatchWeightedSum sum
/// each query's keys into a per-thread buffer.
void SumRowTerms(float* y, const RowTerm* terms, int64_t t, const float* bias,
                 int64_t first, int64_t n, int64_t m);
/// A term whose rows receive SumRowTerms' gradient.
struct GradRowTerm {
  float* rows;
  const int32_t* slot;
};
/// SumRowTerms' transpose over `heads` column windows of m / heads floats
/// each (heads divides m). For keys r in [first, first + n) in ascending
/// order and each window h, adds s * x[c] for the window's columns c
/// (s = scale[h * n + r - first]; a zero s adds nothing) to each term's
/// row for key r, in term order, and then to the bias when it is not
/// null. Each element adds s * x[c] as Axpy does. Project's backward
/// scatters each output row's gradient into dU and the bias with it (one
/// window, scale 1, one row per call), and Attention and BatchWeightedSum
/// their keys' gradients, one query per call.
void ScatterRowTerms(const GradRowTerm* terms, int64_t t, float* bias,
                     const float* scale, int64_t heads, const float* x,
                     int64_t first, int64_t n, int64_t m);

// Out-of-place forms (y never aliases the inputs).
void AddOut(float* y, const float* a, const float* b, int64_t n);  // y=a+b
void MulOut(float* y, const float* a, const float* b, int64_t n);  // y=a*b
void ScaleOut(float* y, float s, const float* x, int64_t n);       // y=s*x

/// y[i] = sigmoid(x[i]) (numerically stable two-branch form).
void SigmoidForward(const float* x, float* y, int64_t n);
/// gx[i] += gy[i] * y[i] * (1 - y[i]) where y is the forward output.
void SigmoidBackward(float* gx, const float* gy, const float* y, int64_t n);
/// y[i] = x[i] > 0 ? x[i] : 0.
void ReluForward(const float* x, float* y, int64_t n);
/// gx[i] += gy[i] * (x[i] > 0 ? 1 : 0) where x is the forward input.
void ReluBackward(float* gx, const float* gy, const float* x, int64_t n);

/// y[i] = (1 - w[i]) * a[i] + w[i] * b[i].
void LerpOut(float* y, const float* a, const float* b, const float* w,
             int64_t n);
/// y[i] = (1 - w) * a[i] + w * b[i]: one row under a column weight.
void LerpOut(float* y, const float* a, const float* b, float w, int64_t n);
/// LerpOut's backward for a per-entry weight, g the output gradient: for
/// every i, gw += g * b, then gb += g * w, then ga += g * (1 - w), then
/// gw += (g * a) * -1, one whole loop each in that order; a null gradient
/// is skipped.
void LerpBackward(float* gw, float* ga, float* gb, const float* g,
                  const float* a, const float* b, const float* w, int64_t n);

// ---------------------------------------------------------------------------
// Row/loss kernels.
// ---------------------------------------------------------------------------

/// Row softmax with optional mask (mask == nullptr means unmasked): masked
/// entries get probability zero; an all-masked row is all zeros. The exp
/// normalizer is a ReduceSum over the exponentiated row, so the reduction
/// tree is fixed.
void SoftmaxRow(const float* in, const float* mask, int64_t d, float* out);

/// Mean binary cross entropy with logits over n entries (striped-lane
/// accumulation of the stable softplus terms).
float BceForwardMean(const float* logits, const float* targets, int64_t n);

/// g[i] += seed * (sigmoid(logits[i]) - targets[i]).
void BceBackward(float* g, const float* logits, const float* targets,
                 float seed, int64_t n);

// ---------------------------------------------------------------------------
// Observability.
// ---------------------------------------------------------------------------

/// Adds to the obs kernels.flops counter (no-op when metrics are off).
/// GEMM entry points call this themselves; op-level callers account for
/// their elementwise/reduction work with one call per op.
void CountFlops(int64_t flops);

}  // namespace benchtemp::tensor::kernels

#endif  // BENCHTEMP_TENSOR_KERNELS_KERNELS_H_
