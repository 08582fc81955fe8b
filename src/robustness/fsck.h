#ifndef BENCHTEMP_ROBUSTNESS_FSCK_H_
#define BENCHTEMP_ROBUSTNESS_FSCK_H_

#include <string>
#include <vector>

namespace benchtemp::robustness {

/// One problem found by FsckDirectory.
struct FsckIssue {
  std::string path;    // offending file (or manifest)
  std::string reason;  // "corrupt container", "manifest checksum mismatch"...
};

/// Result of scanning a checkpoint+manifest directory.
struct FsckReport {
  int lineages = 0;        // lineage manifests found
  int generations = 0;     // generation files examined
  int corrupt = 0;         // generations (or manifests) that failed a check
  int orphans = 0;         // generation files no manifest references
  int stale_tmps = 0;      // leftover .tmp files from interrupted commits
  int repaired = 0;        // files removed / manifests rewritten by repair
  int unrecoverable = 0;   // lineages left with zero valid generations
  std::vector<FsckIssue> issues;

  /// True when every lineage has at least one valid generation and no
  /// corruption was found (stale tmps and orphans alone do not fail a
  /// verify — they are what a crash legitimately leaves behind).
  bool clean() const { return corrupt == 0 && unrecoverable == 0; }
};

/// Offline integrity check of every checkpoint lineage under `dir`
/// (non-recursive). Groups the directory's files into lineages and reports
/// each one's CheckpointLineage::Inspect() verdicts: a manifest that does
/// not parse, every invalid generation, orphans (valid or not) and stale
/// `.tmp` files. A lineage with no valid generation is unrecoverable.
///
/// With `repair` set, each lineage runs CheckpointLineage::Repair() after
/// the report is taken.
FsckReport FsckDirectory(const std::string& dir, bool repair);

/// Renders the report in the stable text format `btfsck` prints.
std::string FormatFsckReport(const FsckReport& report);

}  // namespace benchtemp::robustness

#endif  // BENCHTEMP_ROBUSTNESS_FSCK_H_
