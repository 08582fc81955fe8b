#ifndef BENCHTEMP_TENSOR_AUTOGRAD_H_
#define BENCHTEMP_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace benchtemp::tensor {

/// Reverse-mode automatic differentiation over `Tensor` values.
///
/// The engine is tape-free: each operation returns a `Var` (shared pointer to
/// a `VarNode`) holding the forward value, links to its parents, and a
/// closure that propagates the node's gradient into its parents. Calling
/// `Backward(root)` topologically sorts the DAG reachable from `root` and
/// runs the closures in reverse order. This mirrors the define-by-run model
/// of the DL frameworks the original BenchTemp is built on, at CPU scale.
struct VarNode {
  Tensor value;
  /// Accumulated gradient: a parameter's is allocated with it (zeros, on
  /// the heap); an interior node's on its first use, from the arena.
  Tensor grad;
  /// Whether gradients should flow to/through this node.
  bool requires_grad = false;
  /// Name of the op that recorded this node ("leaf" for Constant/Parameter);
  /// static-storage string, used by the BENCHTEMP_CHECK tape validator.
  const char* op = "leaf";
  /// Set by the tape validator once Backward() consumed this interior node;
  /// its grad buffer is then NaN-poisoned and must not be reused.
  bool tape_released = false;
  std::vector<std::shared_ptr<VarNode>> parents;
  /// Propagates `grad` into the parents' `grad` fields. Null for leaves.
  std::function<void(VarNode&)> backward_fn;

  /// Releases the ancestors iteratively: a chain of uniquely owned nodes
  /// would otherwise recurse once per tape level through `shared_ptr`.
  ~VarNode();

  /// Ensures `grad` is allocated (zero-filled) with `value`'s shape. A
  /// parameter's already is.
  Tensor& EnsureGrad();
};

using Var = std::shared_ptr<VarNode>;

/// Creates a leaf node that does not require gradients (an input).
Var Constant(Tensor value);
/// Creates a leaf node that requires gradients (a trainable parameter),
/// with its zero gradient buffer.
Var Parameter(Tensor value);

/// Runs reverse-mode differentiation from `root`, which must be a scalar
/// (size-1) tensor. Seeds the root gradient with 1.
void Backward(const Var& root);

/// Zeroes the gradient buffers of the given parameters.
void ZeroGrad(const std::vector<Var>& params);

// ---------------------------------------------------------------------------
// Elementwise and broadcast arithmetic.
// ---------------------------------------------------------------------------

/// Elementwise a + b for equal-sized a and b.
Var Add(const Var& a, const Var& b);
/// Elementwise a * b for equal-sized a and b.
Var Mul(const Var& a, const Var& b);
/// a * s for a compile-time constant scalar s.
Var ScalarMul(const Var& a, float s);
/// (1 - w) * a + w * b for equal-sized a and b. `w` is either a's shape or
/// an [n, 1] constant weighting each row of a [n, d] a. Bit-identical to
/// Add(Mul(a, 1 - w), Mul(b, w)) built from the eager ops, in one node.
Var Lerp(const Var& a, const Var& b, const Var& w);

// ---------------------------------------------------------------------------
// Shape ops.
// ---------------------------------------------------------------------------

/// Concatenates rank-2 tensors along rows; all must share the column count.
Var ConcatRows(const std::vector<Var>& parts);
/// Gathers rows of `table` ([N, d]) at `indices` -> [n, d]; the backward pass
/// scatter-adds into the table (embedding lookup).
Var GatherRows(const Var& table, const std::vector<int32_t>& indices);

// ---------------------------------------------------------------------------
// Projection over column blocks: the one matrix product on the tape.
// ---------------------------------------------------------------------------

/// A block of n rows stored once per distinct row: gathered row r is row
/// `slot[r]` of the tape value `table`. Rows no slot names are allowed
/// (their gradient stays 0).
struct GatheredRows {
  Var table;                  // [U, w]
  std::vector<int32_t> slot;  // [n], each in [0, U)
};

/// Deduplicates `table` rows at `indices` over a `Constant` of the distinct
/// rows. Build it once and pass it to every projection of the same rows
/// (attention keys and values) so they share the index. An index of -1
/// names a zero row (a walk's root step has no edge); all of them share one
/// table row. A rank-0 (absent) table gathers zero-width rows.
std::shared_ptr<const GatheredRows> Rows(const Tensor& table,
                                         const std::vector<int32_t>& indices);

/// Row `slot[r]` of the tape value `table` for each r; gradients reach
/// `table` when it requires one. Like `Rows`, adds n to
/// `tensor.project_rows` and the table's row count to
/// `tensor.project_unique_rows`.
std::shared_ptr<const GatheredRows> RowsOf(Var table,
                                           std::vector<int32_t> slot);

/// One column block of a `Project` input: a tape value, or gathered rows.
struct ColBlock {
  /*implicit*/ ColBlock(Var value) : dense(std::move(value)) {}
  /*implicit*/ ColBlock(std::shared_ptr<const GatheredRows> rows)
      : gathered(std::move(rows)) {}

  int64_t rows() const;
  int64_t cols() const;

  Var dense;
  std::shared_ptr<const GatheredRows> gathered;
};

/// [B_1 | ... | B_n] · weight without building the concatenation. Each
/// block multiplies its own contiguous row slice of `weight`, and only a
/// block that requires a gradient gets the input-gradient GEMM. A gathered
/// block is projected once per table row and each output row adds its
/// row's projection, so its work scales with U rather than n; its table
/// receives dU · W_sliceᵀ, where dU sums dOut over the rows sharing a slot.
/// An optional [1, m] `bias` is added to every row after the gathered
/// terms; it receives dOut's rows summed in ascending row order.
Var Project(const std::vector<ColBlock>& blocks, const Var& weight,
            const Var& bias = nullptr);

/// Project(blocks, weight, bias) without its row pass: the n output rows
/// are never built. Each is the sum of its terms (the dense blocks' product
/// row, then each gathered block's projected table row, in block order)
/// and the bias, and a reader sums the rows it reads in that order, so it
/// sees the bits Project's rows hold.
struct SummedRows {
  struct Term {
    int64_t first;  // the term's first row in `tables`
    std::shared_ptr<const GatheredRows> gathered;  // null: the dense term
  };

  /// The terms' rows, stacked: the dense blocks' product ([n, m], when any
  /// block is dense), then each gathered block's table times its weight
  /// slice ([U, m]). Gradients reach it per table row, and its backward is
  /// Project's per-block GEMMs.
  Var tables;
  /// Key r reads row `first + r` of a dense term, `first + slot[r]` of a
  /// gathered one.
  std::vector<Term> terms;
  Var bias;  // [1, m], or null
  int64_t rows = 0;  // n
};
SummedRows ProjectRows(const std::vector<ColBlock>& blocks, const Var& weight,
                       const Var& bias = nullptr);

// ---------------------------------------------------------------------------
// Nonlinearities.
// ---------------------------------------------------------------------------

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var Cos(const Var& a);

// ---------------------------------------------------------------------------
// Reductions and losses.
// ---------------------------------------------------------------------------

/// Sum of all entries -> scalar [1].
Var Sum(const Var& a);
/// Numerically stable mean binary cross entropy with logits.
/// `logits` has n entries (any shape), `targets` has matching size with
/// values in {0, 1}. Returns a scalar.
Var BceWithLogits(const Var& logits, const Tensor& targets);
/// Mean softmax cross entropy for multi-class classification.
/// `logits` is [n, C]; `labels[i]` in [0, C). Returns a scalar.
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int64_t>& labels);

// ---------------------------------------------------------------------------
// Attention over summed rows.
//
// Attention over sampled temporal neighbors operates on a [B, K, D] block
// of key rows, key b*K + k for query b. Keys and values come as
// SummedRows, never built as [B*K, D]: each query's keys are summed whole
// from their terms into a per-thread buffer, and their gradients are
// scattered straight into the terms' table rows and the bias, one thread,
// in ascending key order.
// ---------------------------------------------------------------------------

/// Multi-head scaled dot-product attention -> [B, m], as one node. q is
/// [B, m]; the keys and values are B*K rows of width m. Head h reads
/// columns [h*d, (h+1)*d), d = m / num_heads (num_heads must divide m):
/// score_k = (1/sqrt(d)) · dot(q, key_k), weights = the row softmax over
/// the keys with masked keys (mask[b, k] == 0) at exactly 0 (an all-masked
/// row is all 0), and the head's output columns sum weight_k · value_k.
/// Each key's K and V rows are summed once for all heads, and every score,
/// weight, output and gradient holds the bits of the per-head composition
/// Dot → scale → masked softmax → weighted sum. The parents are [q, the
/// keys' tables and bias, the values' tables and bias].
Var Attention(const Var& q, const SummedRows& keys, const SummedRows& values,
              const Tensor& mask, int64_t num_keys, int64_t num_heads);
/// out[b, :] = sum_k w[b, k] * values[b*K + k, :] -> [B, m], for w [B, K]
/// and values [B*K, m] (mean pooling, TeMP's neighbour pools). The weights
/// are constants, as Attention's mask is, so only the values take a
/// gradient.
Var BatchWeightedSum(const Tensor& w, const Var& values, int64_t num_keys);

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_AUTOGRAD_H_
