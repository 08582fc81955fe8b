#ifndef BENCHTEMP_TENSOR_DEBUG_CHECK_H_
#define BENCHTEMP_TENSOR_DEBUG_CHECK_H_

#include <cstdint>

namespace benchtemp::tensor {

struct VarNode;

/// Runtime counterpart of the btlint static rules: a `BENCHTEMP_CHECK=1`
/// gated autograd-tape validator. The lexer can prove a file never calls
/// `std::rand`; it cannot prove a model never reuses a Var whose tape was
/// already consumed by `Backward`, or that every op records shape-consistent
/// nodes. Those invariants are checked here, dynamically, in the CI Debug
/// leg.
///
/// Checks (all fatal via CheckOrDie, with the op name in the message):
///   - record time: the node's value volume matches its shape, parents are
///     non-null, and no parent's tape has already been released by a
///     Backward pass (use-after-backward);
///   - backward time: each interior node's gradient matches its value's
///     shape before the backward closure runs;
///   - after backward: interior (non-leaf) gradient buffers are dead —
///     they are poisoned with quiet NaNs and the node is marked released,
///     so any read of a stale gradient surfaces as a loud NaN instead of a
///     silently wrong update.
///
/// The whole validator is off (single cached boolean test per call) unless
/// the `BENCHTEMP_CHECK` environment variable is set to a non-empty value
/// other than "0".
namespace debug_check {

/// True when BENCHTEMP_CHECK is enabled (cached after the first call).
bool Enabled();

/// Test hook: force the validator on/off regardless of the environment.
void SetEnabledForTest(bool enabled);

/// Validates a freshly recorded op node (shape agreement, live parents).
/// `op` is the autograd op name used in diagnostics.
void OnRecord(const VarNode& node);

/// Validates an interior node just before its backward closure runs.
void OnBackwardNode(const VarNode& node);

/// Marks an interior node's tape as released after its backward closure
/// ran: poisons the gradient buffer with NaNs and sets `tape_released`.
void ReleaseNode(VarNode& node);

}  // namespace debug_check

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_DEBUG_CHECK_H_
