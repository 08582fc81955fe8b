// btfsck — offline integrity checker for BenchTemp checkpoint directories.
//
// Groups a directory's files into checkpoint lineages (<job>.lineage
// manifests plus <job>.g<seq> generation files) and reports each one's
// CheckpointLineage::Inspect() verdicts — the same verdicts a resuming job
// loads by: a generation must match its manifest row's size and checksum
// and be a valid BTJC container; an orphan the manifest does not list is
// judged by its container alone. Orphans and stale .tmp files left by
// interrupted commits are reported too.
//
//   btfsck <dir>            report problems (exit 1 only when a lineage is
//                           unrecoverable)
//   btfsck --verify <dir>   exit 1 on ANY corruption (CI gate)
//   btfsck --repair <dir>   CheckpointLineage::Repair() per lineage: drop
//                           invalid generations and stale tmps, rewrite
//                           manifests to list the valid survivors (orphans
//                           adopted); exit 1 when a lineage has no valid
//                           generation left
#include <cstdio>
#include <cstring>
#include <string>

#include "robustness/fsck.h"

int main(int argc, char** argv) {
  bool verify = false;
  bool repair = false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--repair") == 0) {
      repair = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "btfsck: unknown flag %s\n", argv[i]);
      return 2;
    } else if (dir.empty()) {
      dir = argv[i];
    } else {
      std::fprintf(stderr, "btfsck: one directory at a time\n");
      return 2;
    }
  }
  if (dir.empty() || (verify && repair)) {
    std::fprintf(stderr, "usage: btfsck [--verify|--repair] <dir>\n");
    return 2;
  }

  using benchtemp::robustness::FsckDirectory;
  using benchtemp::robustness::FsckReport;
  const FsckReport report = FsckDirectory(dir, repair);
  std::fputs(benchtemp::robustness::FormatFsckReport(report).c_str(), stdout);

  if (report.unrecoverable > 0) return 1;
  if (verify && !report.clean()) return 1;
  return 0;
}
