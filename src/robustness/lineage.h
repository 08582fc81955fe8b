#ifndef BENCHTEMP_ROBUSTNESS_LINEAGE_H_
#define BENCHTEMP_ROBUSTNESS_LINEAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "robustness/checkpoint.h"

namespace benchtemp::robustness {

/// A file name that belongs to some checkpoint lineage: a generation
/// `<base>.g<seq>`, the manifest `<base>.lineage`, or either one with the
/// `.tmp` suffix an interrupted atomic replace leaves behind.
struct LineageFileName {
  std::string base;
  /// Generation number (generation files only).
  uint64_t seq = 0;
  bool manifest = false;
  bool tmp = false;
};

/// Parses a bare file name (no directory). Returns false for a name no
/// lineage owns. The one name parser: CheckpointLineage lists its own
/// files with it and btfsck groups a directory into lineages with it.
bool ParseLineageFileName(const std::string& name, LineageFileName* out);

/// The one verdict on one generation of a lineage.
enum class GenerationVerdict {
  kValid,
  /// Listed in the manifest, but the file is missing or unreadable.
  kMissing,
  /// Size or checksum differs from the generation's manifest row.
  kMismatch,
  /// The BTJC container fails ParseJobCheckpoint.
  kRejected,
};

/// Stable reason text of a verdict ("listed generation missing",
/// "manifest checksum mismatch", "corrupt container"), shared by
/// CheckpointLineage::Load errors and the btfsck report.
const char* VerdictReason(GenerationVerdict verdict);

/// One generation as CheckpointLineage::Inspect found it.
struct GenerationStatus {
  uint64_t seq = 0;
  /// False for an orphan: a generation file the manifest does not list.
  /// An orphan is judged by its container alone.
  bool listed = false;
  GenerationVerdict verdict = GenerationVerdict::kValid;
};

/// Everything one lineage has on disk, each generation judged once.
struct LineageInventory {
  /// The manifest file exists / exists and parses.
  bool has_manifest = false;
  bool manifest_ok = false;
  /// Every listed and every on-disk generation, ascending seq.
  std::vector<GenerationStatus> generations;
  /// Paths of this lineage's leftover `.tmp` files.
  std::vector<std::string> stale_tmps;

  /// Something of the lineage exists, yet no generation is valid.
  bool unrecoverable() const;
};

/// Outcome of CheckpointLineage::Load.
struct LineageLoadResult {
  /// True when some generation is valid.
  bool ok = false;
  /// Invalid generations newer than the one that loaded, or all of them
  /// when none loaded (also added to the obs counter
  /// robustness.ckpt_fallbacks).
  int fallbacks = 0;
  /// Sequence number of the generation that loaded (ok only).
  uint64_t seq = 0;
  /// Why the load failed (ok == false): "no checkpoint" when nothing
  /// exists, otherwise `g<seq>: <reason>` per invalid generation, newest
  /// first, joined by "; ".
  std::string error;
};

/// Keeps the last N checkpoint generations of one training job with an
/// atomic, fsync'd manifest, so one corrupted file (torn write, bit rot)
/// costs at most one epoch of progress instead of the whole job.
///
/// Layout, for base path P:
///   P.g<seq>    generation files (BTJC containers), seq monotonic
///   P.lineage   manifest: the size and FNV-1a of each listed generation
///
/// Only this class knows the manifest format, and Inspect() is the only
/// judge of a generation: Load, Repair and btfsck all read its verdicts.
/// Save() commits the new generation file first, then the manifest, then
/// prunes; a crash between any two steps leaves at worst an orphan (a
/// generation file the manifest does not list), which Inspect() judges by
/// its container and a later Save() prunes once it leaves the window.
class CheckpointLineage {
 public:
  /// `max_generations` >= 1 generations are retained.
  CheckpointLineage(std::string base_path, int max_generations);

  /// Serializes and commits `ckpt` as a new generation, updates the
  /// manifest, and deletes every generation, listed or orphaned, older
  /// than the newest `max_generations`. Reads no generation file. Returns
  /// false when the generation or manifest could not be committed after
  /// retries. On success `bytes_out` (may be null) receives the committed
  /// container size.
  bool Save(const JobCheckpoint& ckpt, int64_t* bytes_out = nullptr);

  /// Reads the manifest once, lists the generation files, and judges
  /// each generation once. When `newest_valid` is non-null it receives
  /// the newest valid generation's checkpoint (untouched when none is).
  LineageInventory Inspect(JobCheckpoint* newest_valid = nullptr) const;

  /// Loads the newest valid generation. Every newer invalid generation
  /// counts into robustness.ckpt_fallbacks.
  LineageLoadResult Load(JobCheckpoint* out) const;

  /// Deletes invalid generation files and stale `.tmp` files, and
  /// rewrites the manifest, only when it changes, to list the valid
  /// generations (orphans adopted). Leaves an unrecoverable lineage
  /// untouched for post-mortem. Returns the number of files deleted or
  /// rewritten.
  int Repair();

  /// Deletes every generation file (listed or orphaned), the manifest and
  /// the lineage's `.tmp` files. Returns false when something could not
  /// be removed.
  bool Remove();

  std::string manifest_path() const { return base_path_ + ".lineage"; }
  std::string GenerationPath(uint64_t seq) const;

 private:
  std::string base_path_;
  int max_generations_;
};

}  // namespace benchtemp::robustness

#endif  // BENCHTEMP_ROBUSTNESS_LINEAGE_H_
