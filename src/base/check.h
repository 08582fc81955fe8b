#ifndef BENCHTEMP_BASE_CHECK_H_
#define BENCHTEMP_BASE_CHECK_H_

// Process-fatal invariant check. Lives in base — the bottom layer — so the
// runtime pool can assert invariants without reaching up into the tensor
// layer (which sits above it in the layering DAG and itself depends on the
// pool). tensor::CheckOrDie re-exports this symbol for its callers.
//
// EnvIntOrDie and EnvDoubleOrDie are the parsers of numeric environment
// knobs, strict for the same reason: a typo must stop the run, not quietly
// become a default.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace benchtemp::base {

inline void CheckOrDie(bool condition, const char* message) {
  if (!condition) {
    std::fprintf(stderr, "benchtemp check failed: %s\n", message);
    std::abort();
  }
}

/// Integer value of the environment variable `name`, or `fallback` when it
/// is unset or empty. Dies naming the variable and its value when the value
/// is not a whole base-10 integer in int range.
inline int EnvIntOrDie(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (*end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "benchtemp check failed: %s=%s is not an integer\n",
                 name, value);
    std::abort();
  }
  return static_cast<int>(parsed);
}

/// Floating-point value of the environment variable `name`, or `fallback`
/// when it is unset or empty. Dies naming the variable and its value when
/// the whole value does not parse as a number in [lo, hi].
inline double EnvDoubleOrDie(const char* name, double fallback, double lo,
                             double hi) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  // The negated range test also rejects NaN.
  if (*end != '\0' || !(parsed >= lo && parsed <= hi)) {
    std::fprintf(stderr,
                 "benchtemp check failed: %s=%s is not a number in "
                 "[%g, %g]\n",
                 name, value, lo, hi);
    std::abort();
  }
  return parsed;
}

}  // namespace benchtemp::base

#endif  // BENCHTEMP_BASE_CHECK_H_
