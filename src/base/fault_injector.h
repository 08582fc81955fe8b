#ifndef BENCHTEMP_BASE_FAULT_INJECTOR_H_
#define BENCHTEMP_BASE_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace benchtemp::base {

/// Instrumented failure points of the pipeline. Each site is probed by the
/// code that owns it (trainer, checkpoint writer); the injector decides
/// whether the probe fires.
enum class FaultSite {
  /// Poison the training loss with NaN (probed once per optimizer step).
  kNanLoss,
  /// Throw from the forward pass (probed once per training batch).
  kThrowForward,
  /// Stall a training batch (probed once per batch; outlasts a deadline).
  kStallBatch,
  /// Fail a checkpoint between temp-file write and rename (probed once per
  /// atomic file commit) — the old checkpoint must survive.
  kCheckpointRename,
  /// io::File::Write commits only a prefix of the buffer (probed once per
  /// Write call) — the checked-I/O path must latch failure.
  kShortWrite,
  /// io::File::Write reports EIO without writing (probed once per Write).
  kEioWrite,
  /// io::File::Sync reports EIO (probed once per Sync).
  kEioFsync,
  /// AtomicReplace of a checkpoint commits a payload truncated at a seeded
  /// offset and REPORTS SUCCESS — silent torn-write corruption that only
  /// the checksum (and lineage fallback) can catch.
  kTornCheckpoint,
  /// AtomicReplace of a checkpoint flips one seeded byte and REPORTS
  /// SUCCESS — silent bit rot.
  kBitflipCheckpoint,
  /// io::File::Write on a manifest-kind file reports EIO (probed once per
  /// manifest Write) — exercises the manifest retry path.
  kEioManifest,
};
inline constexpr int kNumFaultSites = 10;

/// Human-readable site name ("nan_loss", ...).
const char* FaultSiteName(FaultSite site);

/// What an armed site does when its trigger step is reached.
struct FaultSpec {
  /// Probe index (0-based) at which the fault fires; -1 = disarmed.
  int64_t at_step = -1;
  /// Number of consecutive probes that fire from `at_step` on.
  int64_t count = 1;
  /// kStallBatch only: milliseconds to sleep when firing.
  int64_t stall_ms = 0;
  /// Corruption sites only: base seed of the SplitMix64 stream that picks
  /// the torn offset / flipped byte, so every injected corruption is
  /// reproducible from the spec string.
  uint64_t seed = 0;
  /// When true the process exits hard (_exit(137), SIGKILL-like) instead of
  /// reporting the fault — used to prove crash-consistency of on-disk
  /// state. Applied only where a real crash is survivable by design.
  bool kill_process = false;
};

/// Deterministic, configurable fault injection used by the robustness tests
/// and the CI fault-injection job to prove every recovery path.
///
/// Sites are armed programmatically (tests) or from the BENCHTEMP_FAULTS
/// environment variable (CI / reproduction runs):
///
///   BENCHTEMP_FAULTS="nan_loss@40;stall_batch@5:3:200;crash_checkpoint@1"
///
/// Grammar per ';'-separated entry: `site@step[:count[:stall_ms[:seed]]]`,
/// with an optional `!kill` suffix for a hard process exit. Sites:
/// nan_loss, throw_forward, stall_batch, crash_checkpoint, short_write,
/// eio_write, eio_fsync, torn_checkpoint, bitflip_checkpoint,
/// eio_manifest.
///
/// All probes are thread-safe; per-site probe counters are global to the
/// process (matching "inject at step k of the run").
class FaultInjector {
 public:
  /// Process-wide injector. Reads BENCHTEMP_FAULTS once on first access.
  static FaultInjector& Global();

  /// Arms one site. Resets that site's probe counter.
  void Arm(FaultSite site, FaultSpec spec);
  /// Disarms every site and clears all counters.
  void DisarmAll();
  /// Parses and arms a BENCHTEMP_FAULTS-style spec string. Returns false on
  /// a malformed entry (well-formed entries before it are still armed).
  bool Configure(const std::string& spec);

  /// Probes `site`: increments its counter and reports whether the fault
  /// fires at this step. When the matching spec has kill_process set, the
  /// process exits hard instead of returning. When the fault fires and
  /// `seed_out` is non-null it receives SplitMix64(spec.seed, probe step) —
  /// the deterministic per-firing stream the corruption sites draw their
  /// offsets from.
  bool Fire(FaultSite site, uint64_t* seed_out = nullptr);

  /// Stall duration of the most recently armed kStallBatch spec.
  int64_t stall_ms() const;

  /// Number of times `site` actually fired (for test assertions).
  int64_t fire_count(FaultSite site) const;

 private:
  FaultInjector() = default;

  mutable Mutex mutex_;
  std::array<FaultSpec, kNumFaultSites> specs_ GUARDED_BY(mutex_){};
  std::array<int64_t, kNumFaultSites> probes_ GUARDED_BY(mutex_){};
  std::array<int64_t, kNumFaultSites> fires_ GUARDED_BY(mutex_){};
};

}  // namespace benchtemp::base

#endif  // BENCHTEMP_BASE_FAULT_INJECTOR_H_
