#ifndef BENCHTEMP_TENSOR_EXPR_H_
#define BENCHTEMP_TENSOR_EXPR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/kernels/fused.h"
#include "tensor/tensor.h"

// Lazy elementwise expression layer (see DESIGN.md "Expression fusion").
//
// The ops below build a lazy DAG over `Var` leaves instead of recording one
// tape node per call. The terminal `Materialize()` (or the implicit
// conversion to Var) compiles the DAG into one kernels::fused::Program and
// emits ONE fused forward pass plus ONE tape node whose backward replays
// the whole chain's derivative in a single pass:
//
//   Var z = expr::Sigmoid(expr::Add(Ex(ix), Ex(hh)));   // 1 node, 1 pass
//
// instead of the eager 2 nodes / 2 arena tensors / 2 memory-bound sweeps.
//
// Shape rules mirror tensor/autograd.h exactly and are enforced at
// composition time: Add/Mul accept a [1, d] row-broadcast second operand,
// Mul additionally a [n, 1] (or rank-1 [n]) column-broadcast one, Sub
// requires equal sizes. Following the simple-tensor idiom, a broadcast
// operand must be a materialized leaf `Var` — broadcasting a lazy
// subexpression is rejected at composition time (materialize it first).
//
// Lifetime: an `Ex` only borrows its leaf Vars until Materialize() runs,
// which must happen inside the same TapeScope that the chain's inputs were
// recorded under (exactly like calling the eager ops directly). The fused
// node's value/grad come from kernels::NewTensor like any eager node.
//
// SetFusionEnabledForTest(false) routes Materialize() back through the
// eager per-op tape path — the oracle the fused evaluator is tested and
// benchmarked against. Results are bit-identical either way, at any thread
// count; the digest-matrix tests assert this on whole training runs.

namespace benchtemp::tensor::expr {

/// A lazy elementwise expression: either a leaf `Var` or an op node over
/// sub-expressions. Value-semantic handle; cheap to copy.
class Ex {
 public:
  struct Node {
    bool is_leaf = false;
    Var leaf;  // when is_leaf
    kernels::fused::OpKind op = kernels::fused::OpKind::kAdd;
    /// Broadcast mode of operand `b`, fixed at composition time.
    kernels::fused::Bcast bcast = kernels::fused::Bcast::kNone;
    std::shared_ptr<const Node> a;
    std::shared_ptr<const Node> b;
    float scalar = 0.0f;
    /// Output shape (operand a's shape for binary ops).
    std::vector<int64_t> shape;
  };

  /// Wraps a materialized Var as a leaf.
  /*implicit*/ Ex(const Var& v);
  explicit Ex(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  /// Compiles and runs the chain, returning the fused tape node (or the
  /// leaf itself for a bare leaf; or the eager per-op replay when fusion
  /// is disabled).
  Var Materialize() const;
  /*implicit*/ operator Var() const { return Materialize(); }

  const std::vector<int64_t>& shape() const { return node_->shape; }
  const std::shared_ptr<const Node>& node() const { return node_; }

 private:
  std::shared_ptr<const Node> node_;
};

// Composition ops; shape errors abort at composition time.
Ex Add(const Ex& a, const Ex& b);
Ex Sub(const Ex& a, const Ex& b);
Ex Mul(const Ex& a, const Ex& b);
Ex ScalarMul(const Ex& a, float s);
Ex ScalarAdd(const Ex& a, float s);
Ex Sigmoid(const Ex& a);
Ex Tanh(const Ex& a);
Ex Relu(const Ex& a);
Ex Exp(const Ex& a);
Ex Cos(const Ex& a);
Ex Sin(const Ex& a);

/// True unless a test turned fusion off.
bool FusionEnabled();

/// Test and bench hook: false replays chains through the eager per-op
/// tape; true restores the default.
void SetFusionEnabledForTest(bool enabled);

}  // namespace benchtemp::tensor::expr

#endif  // BENCHTEMP_TENSOR_EXPR_H_
