#include "robustness/fsck.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "robustness/lineage.h"

namespace benchtemp::robustness {

FsckReport FsckDirectory(const std::string& dir, bool repair) {
  FsckReport report;
  // Full base paths of every lineage that owns a file in `dir`.
  std::set<std::string> bases;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::string full = entry.path().string();
    LineageFileName parsed;
    if (entry.is_regular_file(ec) && ParseLineageFileName(name, &parsed)) {
      bases.insert(full.substr(0, full.size() - name.size()) + parsed.base);
    }
  }

  for (const std::string& base : bases) {
    CheckpointLineage lineage(base, 1);
    const LineageInventory inventory = lineage.Inspect();
    if (inventory.has_manifest) ++report.lineages;
    if (inventory.has_manifest && !inventory.manifest_ok) {
      ++report.corrupt;
      report.issues.push_back({lineage.manifest_path(), "corrupt manifest"});
    }
    for (const GenerationStatus& g : inventory.generations) {
      ++report.generations;
      const bool valid = g.verdict == GenerationVerdict::kValid;
      if (!valid) ++report.corrupt;
      const std::string path = lineage.GenerationPath(g.seq);
      if (!g.listed) {
        ++report.orphans;
        report.issues.push_back({path, valid ? "orphan generation (valid)"
                                             : "orphan generation (corrupt)"});
      } else if (!valid) {
        report.issues.push_back({path, VerdictReason(g.verdict)});
      }
    }
    report.stale_tmps += static_cast<int>(inventory.stale_tmps.size());
    for (const std::string& tmp : inventory.stale_tmps) {
      report.issues.push_back({tmp, "stale tmp from interrupted commit"});
    }
    if (inventory.unrecoverable()) {
      ++report.unrecoverable;
      report.issues.push_back({base, "no valid generation survives"});
    }
    if (repair) report.repaired += lineage.Repair();
  }

  std::sort(report.issues.begin(), report.issues.end(),
            [](const FsckIssue& a, const FsckIssue& b) {
              return a.path == b.path ? a.reason < b.reason : a.path < b.path;
            });
  return report;
}

std::string FormatFsckReport(const FsckReport& report) {
  std::string out;
  out += "lineages: " + std::to_string(report.lineages) + "\n";
  out += "generations: " + std::to_string(report.generations) + "\n";
  out += "corrupt: " + std::to_string(report.corrupt) + "\n";
  out += "orphans: " + std::to_string(report.orphans) + "\n";
  out += "stale_tmps: " + std::to_string(report.stale_tmps) + "\n";
  out += "repaired: " + std::to_string(report.repaired) + "\n";
  out += "unrecoverable: " + std::to_string(report.unrecoverable) + "\n";
  for (const FsckIssue& issue : report.issues) {
    out += "issue|" + issue.path + "|" + issue.reason + "\n";
  }
  return out;
}

}  // namespace benchtemp::robustness
