#ifndef BENCHTEMP_TENSOR_KERNELS_FUSED_H_
#define BENCHTEMP_TENSOR_KERNELS_FUSED_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

// Fused elementwise chain evaluator (see DESIGN.md "Expression fusion").
//
// A `Program` is a linearized elementwise DAG: `num_inputs` input slots
// (the chain's leaf tensors) followed by one output slot per instruction,
// in topological order; the last instruction produces the chain's result.
// `Forward` evaluates the whole chain in ONE row-parallel pass with one
// small per-chunk scratch buffer instead of one arena tensor per op, and
// `Backward` replays the chain's derivative in one pass, accumulating
// directly into the leaf gradient buffers.
//
// Determinism contract: every per-element arithmetic expression is the one
// the eager ops in tensor/autograd.cc would execute (same kernels::
// primitives for binary ops and Sigmoid, same libm calls for the
// transcendental unaries, same fixed Dot lane tree for column-broadcast
// reductions), rows are chunked by the shared shape-only RowGrain policy,
// and row-broadcast gradients are staged per instruction and reduced
// serially in ascending row order — so fused results are bit-identical to
// the eager per-op tape at any thread count. This TU is compiled with -O3
// -ffp-contract=off like the rest of the kernel layer.

namespace benchtemp::tensor::kernels::fused {

/// The fusible elementwise ops (the subset of tensor/autograd.h ops whose
/// per-element work depends only on the same element of each operand).
enum class OpKind : uint8_t {
  kAdd,
  kSub,
  kMul,
  kScalarMul,
  kScalarAdd,
  kSigmoid,
  kTanh,
  kRelu,
  kExp,
  kCos,
  kSin,
};

/// Short lowercase name used in the composed tape-node label
/// ("fused[add|sigmoid]").
const char* OpName(OpKind op);

/// True for the single-operand ops.
bool IsUnary(OpKind op);

/// Broadcast mode of an input slot (mirrors the eager predicates: kRow is a
/// [1, d] operand replicated over rows, kCol a [n, 1] / rank-1 [n] operand
/// scaling each row; only Mul accepts kCol, only Add/Mul accept kRow).
enum class Bcast : uint8_t { kNone, kRow, kCol };

/// One fused instruction. Slot indices < num_inputs name input tensors;
/// slot i >= num_inputs names the output of instruction i - num_inputs.
struct Instr {
  OpKind op = OpKind::kAdd;
  /// Broadcast mode of operand `b` (binary ops; operand `a` is full-shape).
  Bcast bcast = Bcast::kNone;
  int32_t a = -1;
  int32_t b = -1;  // unused for unary/scalar ops
  float scalar = 0.0f;  // kScalarMul / kScalarAdd immediate
};

/// A compiled elementwise chain over [rows, cols] tensors.
struct Program {
  int64_t rows = 0;
  int64_t cols = 0;
  int32_t num_inputs = 0;
  /// Per-input broadcast mode (size num_inputs).
  std::vector<Bcast> input_bcast;
  /// Instructions in topological order; the last one is the chain root.
  std::vector<Instr> instrs;
  /// Forward flop count with eager parity: the sum of what the eager ops
  /// would report to kernels::CountFlops for the same chain.
  int64_t flops = 0;
};

/// Forward-pass checkpoint of the self-valued transcendental outputs
/// (Sigmoid/Tanh/Exp — the ops whose derivative reads their own output).
/// Recomputing those in the backward would re-evaluate the transcendental
/// itself, which costs far more than the bandwidth fusion saves, so the
/// forward stashes exactly those outputs into arena tensors and the
/// backward reads them back instead. The stashed bits are the forward's
/// bits, so gradients are unchanged; chains without such ops allocate
/// nothing.
struct Stash {
  /// Per-instruction buffer index into `bufs`, or -1 when not stashed.
  std::vector<int32_t> stash_of;
  /// Full [rows, cols] tape-arena tensors, one per stashed instruction.
  std::vector<Tensor> bufs;
};

/// Evaluates the chain into `out` ([rows * cols], pre-allocated). `inputs`
/// holds one pointer per input slot (full [rows*cols], row [cols], or
/// column [rows] extent depending on input_bcast). A non-null `stash` is
/// filled with the checkpointed transcendental outputs; pass one whenever
/// a Backward will follow.
void Forward(const Program& p, const float* const* inputs, float* out,
             Stash* stash = nullptr);

/// Replays the chain's derivative: recomputes forward intermediates per
/// row, seeds the root adjoint from `out_grad`, and accumulates each leaf
/// contribution into `input_grads[i]` (same extent as `inputs[i]`; null
/// when that input needs no gradient) in the exact order the eager per-op
/// backward closures would. `stash` must be the one the matching Forward
/// filled (or null, in which case every needed value is recomputed).
void Backward(const Program& p, const float* const* inputs,
              const float* out_grad, float* const* input_grads,
              const Stash* stash = nullptr);

}  // namespace benchtemp::tensor::kernels::fused

#endif  // BENCHTEMP_TENSOR_KERNELS_FUSED_H_
