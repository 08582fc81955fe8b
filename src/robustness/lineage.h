#ifndef BENCHTEMP_ROBUSTNESS_LINEAGE_H_
#define BENCHTEMP_ROBUSTNESS_LINEAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "robustness/checkpoint.h"
#include "robustness/retry.h"

namespace benchtemp::robustness {

/// One generation of a job checkpoint as recorded in the lineage manifest.
struct Generation {
  /// Monotonic sequence number; higher = newer.
  uint64_t seq = 0;
  /// Size of the committed container in bytes.
  int64_t bytes = 0;
  /// FNV-1a of the committed container (duplicates the container's own
  /// trailing checksum so btfsck can verify a file against the manifest
  /// without parsing BTJC).
  uint64_t checksum = 0;
};

/// Parsed lineage manifest (exposed for btfsck). Format: text file,
/// first line `btlineage|1`, then one `gen|<seq>|<bytes>|<checksum hex>`
/// per generation, ascending seq. Returns false when the file exists but
/// is not a parseable manifest; a missing file yields ok=false too — use
/// io::ReadFileBytes first to distinguish.
bool ParseLineageManifest(const std::string& text,
                          std::vector<Generation>* out);

/// Renders a manifest (inverse of ParseLineageManifest).
std::string FormatLineageManifest(const std::vector<Generation>& gens);

/// Outcome of CheckpointLineage::Load.
struct LineageLoadResult {
  /// True when some generation parsed and verified.
  bool ok = false;
  /// Corrupt/unreadable newer generations skipped before the one that
  /// loaded (also added to the obs counter robustness.ckpt_fallbacks).
  int fallbacks = 0;
  /// Sequence number of the generation that loaded (ok only).
  uint64_t seq = 0;
  /// Why the load failed (ok == false): "no checkpoint" when nothing
  /// exists, otherwise a structured list of the rejected generations.
  std::string error;
};

/// Keeps the last N checkpoint generations of one training job with an
/// atomic, fsync'd manifest, so one corrupted file (torn write, bit rot)
/// costs at most one epoch of progress instead of the whole job.
///
/// Layout, for base path P:
///   P.g<seq>    generation files (BTJC containers), seq monotonic
///   P.lineage   manifest listing live generations (atomic replace)
///
/// Save() commits the new generation file first, then the manifest, then
/// prunes; a crash between any two steps leaves a directory Load() (and
/// btfsck) can still interpret — an orphan generation not yet in the
/// manifest is picked up by the directory fallback scan.
class CheckpointLineage {
 public:
  /// `max_generations` >= 1 generations are retained.
  CheckpointLineage(std::string base_path, int max_generations,
                    RetryPolicy retry = RetryPolicy{});

  /// Serializes and commits `ckpt` as a new generation, updates the
  /// manifest, and prunes generations beyond the retention window.
  /// Returns false when the generation or manifest could not be committed
  /// after retries. On success `bytes_out` (may be null) receives the
  /// committed container size.
  bool Save(const JobCheckpoint& ckpt, int64_t* bytes_out = nullptr);

  /// Loads the newest generation that verifies (checksum + magic +
  /// version), skipping corrupt ones newest-to-oldest. Every skipped
  /// generation counts into robustness.ckpt_fallbacks. Falls back to a
  /// directory scan when the manifest itself is missing or corrupt.
  LineageLoadResult Load(JobCheckpoint* out) const;

  /// Deletes every generation file (listed or orphaned) and the manifest.
  /// Returns false when something could not be removed.
  bool Remove();

  const std::string& base_path() const { return base_path_; }
  std::string manifest_path() const { return base_path_ + ".lineage"; }
  std::string GenerationPath(uint64_t seq) const;

 private:
  /// Manifest generations, or the scan fallback. `from_manifest` (may be
  /// null) reports which source answered.
  std::vector<Generation> LiveGenerations(bool* from_manifest) const;
  /// All on-disk generation files of this base path, ascending seq.
  std::vector<Generation> ScanGenerations() const;

  std::string base_path_;
  int max_generations_;
  RetryPolicy retry_;
};

}  // namespace benchtemp::robustness

#endif  // BENCHTEMP_ROBUSTNESS_LINEAGE_H_
