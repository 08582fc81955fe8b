#ifndef BENCHTEMP_OBS_METRICS_H_
#define BENCHTEMP_OBS_METRICS_H_

// Deterministic observability layer (see DESIGN.md "Observability").
//
// A process-wide MetricRegistry holds named counters (relaxed atomics,
// bit-identical at any BENCHTEMP_NUM_THREADS because every counted quantity
// is derived from the deterministic chunking/stream protocol, never from
// scheduling), gauges (mutex-guarded, last-write-wins), per-phase wall-time
// accumulated in thread-local slots by RAII ScopedPhaseTimers (lock-free on
// the hot path, merged at epoch barriers), and per-run structured records.
//
// The whole layer is gated on BENCHTEMP_METRICS=1 (or "on"; any other
// non-empty value is fatal): with the variable unset every hot-path entry
// point reduces to one relaxed atomic load and a branch — no clock reads,
// no allocation, no locking.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace benchtemp::obs {

/// Phase taxonomy of the training pipeline (the TGL-style breakdown that
/// makes efficiency numbers interpretable): batch-stream phases first, then
/// the out-of-loop phases.
enum class Phase : int {
  kSample = 0,     // negative/neighbor sampling
  kForward,        // edge scoring + loss construction
  kBackward,       // backprop, clipping, optimizer step, finite sentinels
  kMemoryUpdate,   // temporal state advance (memory tables, caches)
  kEval,           // validation/test scoring passes + state replay
  kCheckpoint,     // epoch snapshot + on-disk job checkpoint
};
inline constexpr int kNumPhases = 6;

/// Stable lowercase name of a phase ("sample", "forward", ...).
const char* PhaseName(Phase phase);

/// Process-wide counters. Every one of these counts a quantity that is a
/// pure function of the job stream — NOT of thread scheduling — so the set
/// is bit-identical across thread counts (the determinism contract's
/// observability extension, asserted by obs_test).
enum class Counter : int {
  kTrainBatches = 0,    // training batches consumed (retries included)
  kTrainEvents,         // positive events consumed by training batches
  kSamplerNegatives,    // negatives drawn across all EdgeSamplers
  kParallelForCalls,    // runtime::ParallelFor invocations
  kParallelForChunks,   // statically-chunked tasks scheduled by ParallelFor
  kNanRetries,          // NaN/Inf sentinel trips (trainer)
  kRollbacks,           // epoch-boundary rollbacks performed
  kWatchdogFires,       // sweep jobs that ran past their deadline
  kCheckpointWrites,    // job checkpoints committed to disk
  kCheckpointBytes,     // bytes of committed job checkpoints
  kSweepJobsRun,        // sweep jobs executed this process
  kSweepJobsReplayed,   // sweep jobs replayed from a manifest
  kSweepJobsFailed,     // sweep jobs that degraded to FAILED rows
  kKernelFlops,         // flops executed by src/tensor/kernels entry points
  kArenaBytes,          // bytes bump-allocated from tape-scoped arenas
  kArenaResets,         // TapeScope rewinds (one per completed batch scope)
  kCheckpointFallbacks, // corrupt generations skipped during lineage load
  kIoRetries,           // io::RunWithRetry re-attempts of durable writes
  kSamplerCollisionsRejected,  // negative/candidate draws rejected for
                               // colliding with the true destination
  kSamplerPoolFallbacks,       // pool-based draws that fell back to uniform
                               // (empty history / unseen pool / shortfall)
  kProjectRows,         // rows of gathered Project blocks (Rows, RowsOf)
  kProjectUniqueRows,   // their tables' rows (projected once each)
};
inline constexpr int kNumCounters = 22;

/// Stable dotted name of a counter ("train.batches", ...).
const char* CounterName(Counter counter);

/// Monotonic wall-clock seconds. The one sanctioned clock read — the
/// btlint `adhoc-timing` rule rejects std::chrono clock calls elsewhere so
/// every measurement flows through this layer.
double NowSeconds();

/// True when `deadline`, an absolute NowSeconds() value, has passed; a
/// deadline of 0 means none and never passes (and reads no clock).
inline bool DeadlinePassed(double deadline) {
  return deadline > 0.0 && NowSeconds() > deadline;
}

/// Per-phase wall-time totals (seconds + number of timed intervals).
struct PhaseTotals {
  std::array<double, kNumPhases> seconds{};
  std::array<int64_t, kNumPhases> count{};
};

/// One structured per-run record: what a bench run appends after each
/// (model, dataset) job so exports carry the Table 4 columns per cell.
struct RunRecord {
  std::string model;
  std::string dataset;
  std::string task;
  int epochs_run = 0;
  int nan_retries = 0;
  double seconds_per_epoch = 0.0;
  /// Wall-time of epochs that were rolled back by the NaN-retry path —
  /// counted separately so throughput numbers stay honest.
  double retried_epoch_seconds = 0.0;
  double train_events_per_second = 0.0;
  /// Edge scores per second of the final test pass (2 per positive, plus
  /// the k ranking candidates each when the MRR evaluator is on); 0 when
  /// the pass did not run.
  double eval_events_per_second = 0.0;
  int64_t state_bytes = 0;
  int64_t parameter_bytes = 0;
  int64_t checkpoint_bytes = 0;
  /// Indexed by static_cast<int>(Phase).
  std::array<double, kNumPhases> phase_seconds{};
};

class MetricRegistry {
 public:
  /// The process-wide registry.
  static MetricRegistry& Global();

  /// True when collection is on: BENCHTEMP_METRICS is "1" or "on", or a
  /// test override forced it. Dies on any other non-empty value. The
  /// result of the env probe is cached, so this is one relaxed atomic load
  /// + a branch on the hot path.
  static bool Enabled();

  /// Test hook: 1 forces collection on, 0 forces it off, -1 restores the
  /// environment-derived default.
  static void OverrideEnabledForTest(int enabled);

  /// Adds `delta` to a counter (relaxed atomic; no-op when disabled).
  void Add(Counter counter, int64_t delta);
  int64_t value(Counter counter) const;

  /// Sets a named gauge (mutex-guarded; keep off hot paths).
  void SetGauge(const std::string& name, double value);
  /// Gauges sorted by name.
  std::vector<std::pair<std::string, double>> gauges() const;

  /// Adds an interval to the calling thread's phase slot. Lock-free after
  /// the thread's first call (which registers the slot under the mutex).
  void AddPhaseSeconds(Phase phase, double seconds);

  /// Drains the calling thread's slot into `into` (may be null) and the
  /// process-wide totals. Called at epoch barriers by the training thread,
  /// so per-run attribution never reads another thread's slot.
  void DrainThisThread(PhaseTotals* into);

  /// Drains every registered slot and returns the process-wide totals.
  /// Export-time only (slots are atomics, so a concurrent run merely lands
  /// in the next export).
  PhaseTotals phase_totals();

  void AppendRun(const RunRecord& run);
  std::vector<RunRecord> runs() const;

  /// Deterministic "name=value\n" rendering of all counters in enum order
  /// — the byte-comparable section of the metrics (obs_test asserts it is
  /// identical across thread counts).
  std::string CountersDigest() const;

  /// Zeroes counters, gauges, runs, phase totals, and every thread slot.
  void Reset();

 private:
  MetricRegistry() = default;

  struct ThreadSlot {
    std::array<std::atomic<double>, kNumPhases> seconds{};
    std::array<std::atomic<int64_t>, kNumPhases> count{};
  };

  ThreadSlot* SlotForThisThread();

  /// Counters are relaxed atomics — deliberately outside the mutex: every
  /// counted quantity is a pure function of the job stream, so racy
  /// interleavings of fetch_add still converge to the same totals.
  std::array<std::atomic<int64_t>, kNumCounters> counters_{};
  mutable base::Mutex mutex_;
  std::map<std::string, double> gauges_ GUARDED_BY(mutex_);
  std::vector<RunRecord> runs_ GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<ThreadSlot>> slots_ GUARDED_BY(mutex_);
  PhaseTotals merged_ GUARDED_BY(mutex_);
};

/// RAII phase timer: measures the enclosed scope into the calling thread's
/// slot. When collection is disabled the constructor takes no clock read
/// and the destructor does nothing.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase)
      : phase_(phase),
        armed_(MetricRegistry::Enabled()),
        start_(armed_ ? NowSeconds() : 0.0) {}
  ~ScopedPhaseTimer() {
    if (armed_) {
      MetricRegistry::Global().AddPhaseSeconds(phase_, NowSeconds() - start_);
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  Phase phase_;
  bool armed_;
  double start_;
};

}  // namespace benchtemp::obs

#endif  // BENCHTEMP_OBS_METRICS_H_
