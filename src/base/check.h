#ifndef BENCHTEMP_BASE_CHECK_H_
#define BENCHTEMP_BASE_CHECK_H_

// Process-fatal invariant check. Lives in base — the bottom layer — so the
// runtime pool can assert invariants without reaching up into the tensor
// layer (which sits above it in the layering DAG and itself depends on the
// pool). tensor::CheckOrDie re-exports this symbol for its callers.
//
// EnvIntOrDie is the one parser of integer environment knobs, strict for
// the same reason: a typo must stop the run, not quietly become a default.

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

}  // namespace benchtemp::base

#endif  // BENCHTEMP_BASE_CHECK_H_
