#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace benchtemp::obs {

namespace {

constexpr const char* kPhaseNames[kNumPhases] = {
    "sample", "forward", "backward", "memory_update", "eval", "checkpoint",
};

constexpr const char* kCounterNames[kNumCounters] = {
    "train.batches",        "train.events",         "sampler.negatives",
    "parallel_for.calls",   "parallel_for.chunks",  "nan.retries",
    "nan.rollbacks",        "watchdog.fires",       "checkpoint.writes",
    "checkpoint.bytes",     "sweep.jobs_run",       "sweep.jobs_replayed",
    "sweep.jobs_failed",    "kernels.flops",        "arena.bytes",
    "arena.resets",         "robustness.ckpt_fallbacks", "io.retries",
    "sampler.collisions_rejected", "sampler.pool_fallbacks",
    "tensor.project_rows",  "tensor.project_unique_rows",
};

/// BENCHTEMP_METRICS is an on/off switch: unset or empty is off, "1" or
/// "on" is on, and any other value dies naming the variable, so a leftover
/// export path is never silently ignored.
bool EnabledFromEnv() {
  const char* env = std::getenv("BENCHTEMP_METRICS");
  if (env == nullptr || env[0] == '\0') return false;
  if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0) return true;
  std::fprintf(stderr,
               "benchtemp check failed: BENCHTEMP_METRICS=%s is not 1 or on\n",
               env);
  std::abort();
}

/// -1 = derive from the environment; 0/1 = forced by a test.
std::atomic<int> g_enabled_override{-1};

/// Single-writer atomic add for doubles (the owner thread is the only
/// writer of a slot, so the CAS succeeds on the first try; the loop only
/// guards against a concurrent drain's exchange).
void AtomicAdd(std::atomic<double>* cell, double delta) {
  double current = cell->load(std::memory_order_relaxed);
  while (!cell->compare_exchange_weak(current, current + delta,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* PhaseName(Phase phase) {
  const int i = static_cast<int>(phase);
  return (i >= 0 && i < kNumPhases) ? kPhaseNames[i] : "?";
}

const char* CounterName(Counter counter) {
  const int i = static_cast<int>(counter);
  return (i >= 0 && i < kNumCounters) ? kCounterNames[i] : "?";
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry registry;
  return registry;
}

bool MetricRegistry::Enabled() {
  const int forced = g_enabled_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = EnabledFromEnv();
  return from_env;
}

void MetricRegistry::OverrideEnabledForTest(int enabled) {
  g_enabled_override.store(enabled, std::memory_order_relaxed);
}

void MetricRegistry::Add(Counter counter, int64_t delta) {
  if (!Enabled()) return;
  counters_[static_cast<size_t>(counter)].fetch_add(
      delta, std::memory_order_relaxed);
}

int64_t MetricRegistry::value(Counter counter) const {
  return counters_[static_cast<size_t>(counter)].load(
      std::memory_order_relaxed);
}

void MetricRegistry::SetGauge(const std::string& name, double value) {
  if (!Enabled()) return;
  base::MutexLock lock(mutex_);
  gauges_[name] = value;
}

std::vector<std::pair<std::string, double>> MetricRegistry::gauges() const {
  base::MutexLock lock(mutex_);
  return {gauges_.begin(), gauges_.end()};  // std::map: already sorted
}

MetricRegistry::ThreadSlot* MetricRegistry::SlotForThisThread() {
  thread_local ThreadSlot* slot = nullptr;
  if (slot == nullptr) {
    base::MutexLock lock(mutex_);
    slots_.push_back(std::make_unique<ThreadSlot>());
    slot = slots_.back().get();
  }
  return slot;
}

void MetricRegistry::AddPhaseSeconds(Phase phase, double seconds) {
  if (!Enabled()) return;
  ThreadSlot* slot = SlotForThisThread();
  const size_t p = static_cast<size_t>(phase);
  AtomicAdd(&slot->seconds[p], seconds);
  slot->count[p].fetch_add(1, std::memory_order_relaxed);
}

void MetricRegistry::DrainThisThread(PhaseTotals* into) {
  if (!Enabled()) return;
  ThreadSlot* slot = SlotForThisThread();
  PhaseTotals drained;
  for (int p = 0; p < kNumPhases; ++p) {
    const size_t i = static_cast<size_t>(p);
    drained.seconds[i] = slot->seconds[i].exchange(0.0,
                                                   std::memory_order_relaxed);
    drained.count[i] =
        slot->count[i].exchange(0, std::memory_order_relaxed);
    if (into != nullptr) {
      into->seconds[i] += drained.seconds[i];
      into->count[i] += drained.count[i];
    }
  }
  base::MutexLock lock(mutex_);
  for (int p = 0; p < kNumPhases; ++p) {
    const size_t i = static_cast<size_t>(p);
    merged_.seconds[i] += drained.seconds[i];
    merged_.count[i] += drained.count[i];
  }
}

PhaseTotals MetricRegistry::phase_totals() {
  base::MutexLock lock(mutex_);
  for (const std::unique_ptr<ThreadSlot>& slot : slots_) {
    for (int p = 0; p < kNumPhases; ++p) {
      const size_t i = static_cast<size_t>(p);
      merged_.seconds[i] +=
          slot->seconds[i].exchange(0.0, std::memory_order_relaxed);
      merged_.count[i] += slot->count[i].exchange(0, std::memory_order_relaxed);
    }
  }
  return merged_;
}

void MetricRegistry::AppendRun(const RunRecord& run) {
  if (!Enabled()) return;
  base::MutexLock lock(mutex_);
  runs_.push_back(run);
}

std::vector<RunRecord> MetricRegistry::runs() const {
  base::MutexLock lock(mutex_);
  return runs_;
}

std::string MetricRegistry::CountersDigest() const {
  std::string out;
  char line[96];
  for (int c = 0; c < kNumCounters; ++c) {
    std::snprintf(line, sizeof(line), "%s=%lld\n",
                  kCounterNames[c],
                  static_cast<long long>(
                      counters_[static_cast<size_t>(c)].load(
                          std::memory_order_relaxed)));
    out += line;
  }
  return out;
}

void MetricRegistry::Reset() {
  for (auto& counter : counters_) {
    counter.store(0, std::memory_order_relaxed);
  }
  base::MutexLock lock(mutex_);
  gauges_.clear();
  runs_.clear();
  merged_ = PhaseTotals();
  for (const std::unique_ptr<ThreadSlot>& slot : slots_) {
    for (int p = 0; p < kNumPhases; ++p) {
      const size_t i = static_cast<size_t>(p);
      slot->seconds[i].store(0.0, std::memory_order_relaxed);
      slot->count[i].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace benchtemp::obs
