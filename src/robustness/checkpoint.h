#ifndef BENCHTEMP_ROBUSTNESS_CHECKPOINT_H_
#define BENCHTEMP_ROBUSTNESS_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "core/early_stop.h"

namespace benchtemp::robustness {

/// FNV-1a 64-bit hash — the integrity checksum of the checkpoint container
/// and of each lineage manifest row (exposed for the lineage and the
/// tests that pin checkpoint bytes).
uint64_t Fnv1a64(const std::string& bytes);

/// A full training-job checkpoint: everything RunLinkPrediction needs to
/// continue from an epoch boundary exactly as an uninterrupted run would.
///
/// The blobs are opaque sections produced by the tensor layer
/// (SnapshotParameters / Adam::SnapshotState) and the RNG engines
/// (Rng::SaveState); the trainer owns their interpretation. Temporal model
/// state (memory tables, caches) is deliberately absent — each epoch
/// rebuilds it by replaying the event stream, so the epoch boundary is a
/// natural cut point.
///
/// On-disk format (version 2): magic "BTJC", uint32 version, the fixed
/// meta fields, five length-prefixed blob sections, and a trailing FNV-1a
/// checksum of everything before it. Loading verifies magic, version, and
/// checksum, so a corrupt or truncated checkpoint is rejected as a whole
/// (a version-1 file is rejected too — the job simply restarts fresh).
/// Version 2 added `retried_epoch_seconds`.
struct JobCheckpoint {
  /// Epoch to run next (epochs [0, next_epoch) are complete).
  int32_t next_epoch = 0;
  int32_t epochs_run = 0;
  /// NaN-retry budget already consumed.
  int32_t nan_retries = 0;
  /// Learning rate in effect (after any retry backoff).
  float learning_rate = 0.0f;
  /// Wall-clock training time accumulated before the interruption.
  double total_epoch_seconds = 0.0;
  /// Wall-clock time of epochs rolled back by the NaN-retry path; kept out
  /// of total_epoch_seconds so throughput metrics stay honest.
  double retried_epoch_seconds = 0.0;
  /// Job seed, sanity-checked on resume so a checkpoint is never applied
  /// to a different job configuration.
  uint64_t seed = 0;
  core::EarlyStopMonitor::State monitor;
  /// Last completed epoch's validation metrics, so a resume that lands
  /// exactly on the final epoch boundary reports what the uninterrupted
  /// run would have.
  double val_auc = 0.5;
  double val_ap = 0.5;
  int64_t val_count = 0;

  std::string model_rng;     // model's neighbor-sampling engine
  std::string sampler_rng;   // training negative sampler engine
  std::string params;        // current parameters (SnapshotParameters)
  std::string adam;          // optimizer moments (Adam::SnapshotState)
  std::string best_params;   // best-epoch parameters; empty if none yet
};

/// Serializes `ckpt` into the self-validating BTJC container (trailing
/// FNV-1a checksum included).
std::string SerializeJobCheckpoint(const JobCheckpoint& ckpt);

/// Parses and verifies a BTJC container (as produced by
/// SerializeJobCheckpoint). Returns false (out untouched) when the payload
/// is corrupt, truncated, or of an unknown version.
bool ParseJobCheckpoint(const std::string& payload, JobCheckpoint* out);

}  // namespace benchtemp::robustness

#endif  // BENCHTEMP_ROBUSTNESS_CHECKPOINT_H_
