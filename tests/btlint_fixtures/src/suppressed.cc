// Fixture: every rule from the clean-suppression angle — one violation per
// rule, each silenced by a targeted allow comment. Expected finding count: 0.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "runtime/thread_pool.h"

namespace fixture {

int SameLineAllow() {
  return std::rand();  // btlint: allow(banned-random)
}

void OwnLineAllow() {
  // btlint: allow(adhoc-parallelism)
  std::thread worker([] {});
  worker.join();
}

double ReduceAllowed(const float* values, int64_t n) {
  double total = 0.0;
  benchtemp::runtime::ParallelFor(0, n, 256, [&](int64_t i) {
    total += values[i];  // btlint: allow(parallel-float-reduce)
  });
  return total;
}

double DrainAllowed(const std::unordered_map<int, double>& scores) {
  double total = 0.0;
  // btlint: allow(unordered-drain)
  for (const auto& entry : scores) total += entry.second;
  return total;
}

int32_t NarrowAllowed(int64_t node_id) {
  // btlint: allow(id-narrowing)
  return static_cast<int32_t>(node_id);
}

int* NewAllowed() {
  // A wildcard allow also works.
  return new int(7);  // btlint: allow(*)
}

double TimingAllowed() {
  const auto now =
      std::chrono::steady_clock::now();  // btlint: allow(adhoc-timing)
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

void IoAllowed(std::FILE* f) {
  std::fclose(f);  // btlint: allow(unchecked-io)
}

}  // namespace fixture
