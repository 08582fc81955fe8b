#ifndef BENCHTEMP_TENSOR_NUMERIC_H_
#define BENCHTEMP_TENSOR_NUMERIC_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/tensor.h"

namespace benchtemp::tensor {

/// Numeric-hygiene helpers (see DESIGN.md, "Static analysis &
/// invariants").
///
/// Exact `==` on floating point silently breaks once a value has been
/// through any arithmetic: leaderboard best-cell marking, early-stop
/// tolerance checks, and test assertions must all use a tolerance. Every
/// build compiles with -Werror=float-equal; the tolerance helpers below mix
/// an absolute floor with a relative term so they behave sensibly both
/// near zero and for large magnitudes.

/// Default tolerance for metric-scale doubles (AUC/AP values, losses).
inline constexpr double kDefaultTol = 1e-9;

/// |a - b| within `tol`, scaled by the larger magnitude (but never below
/// an absolute floor of `tol` itself).
inline bool ApproxEqual(double a, double b, double tol = kDefaultTol) {
  const double scale =
      std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= tol * scale;
}

/// a > b by more than the tolerance.
inline bool DefinitelyGreater(double a, double b, double tol = kDefaultTol) {
  return a > b && !ApproxEqual(a, b, tol);
}

/// Exact equality, for the few places where it is the point: tie groups of
/// rank statistics, duplicate timestamps, bit-identity checks. This is the
/// one place the float-equal diagnostic is relaxed, so every intentional
/// exact compare is visible at its call site.
inline bool ExactlyEqual(double a, double b) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
  return a == b;
#pragma GCC diagnostic pop
}

/// Exactly zero is a meaningful sentinel in sparse kernels (a weight or a
/// gradient entry that adds nothing); use this named predicate instead of a
/// bare `== 0.0f` so the intent is visible.
inline bool IsExactlyZero(double v) { return ExactlyEqual(v, 0.0); }

/// Bounds-checked narrowing of 64-bit node/edge ids to the 32-bit storage
/// the graph layer uses. Dies (CheckOrDie) instead of silently wrapping
/// when a dataset outgrows int32 — the failure mode the btlint
/// id-narrowing rule exists to prevent.
inline int32_t NarrowId(int64_t v, const char* what) {
  CheckOrDie(v >= 0 && v <= std::numeric_limits<int32_t>::max(), what);
  return static_cast<int32_t>(v);
}

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_NUMERIC_H_
