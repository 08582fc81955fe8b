#include "robustness/lineage.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <utility>

#include "io/file.h"
#include "obs/metrics.h"

namespace benchtemp::robustness {

namespace {

/// True when `s` is a non-empty run of decimal digits.
bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

bool ParseLineageManifest(const std::string& text,
                          std::vector<Generation>* out) {
  std::vector<Generation> gens;
  size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) break;  // torn tail: drop the partial line
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "btlineage|1") return false;
      saw_header = true;
      continue;
    }
    if (line.rfind("gen|", 0) != 0) return false;
    Generation g;
    char* cursor = nullptr;
    const char* start = line.c_str() + 4;
    g.seq = std::strtoull(start, &cursor, 10);
    if (cursor == start || *cursor != '|') return false;
    start = cursor + 1;
    g.bytes = static_cast<int64_t>(std::strtoll(start, &cursor, 10));
    if (cursor == start || *cursor != '|') return false;
    start = cursor + 1;
    g.checksum = std::strtoull(start, &cursor, 16);
    if (cursor == start || *cursor != '\0') return false;
    gens.push_back(g);
  }
  if (!saw_header) return false;
  std::sort(gens.begin(), gens.end(),
            [](const Generation& a, const Generation& b) {
              return a.seq < b.seq;
            });
  *out = std::move(gens);
  return true;
}

std::string FormatLineageManifest(const std::vector<Generation>& gens) {
  std::string text = "btlineage|1\n";
  for (const Generation& g : gens) {
    char line[128];
    std::snprintf(line, sizeof(line), "gen|%" PRIu64 "|%lld|%016" PRIx64 "\n",
                  g.seq, static_cast<long long>(g.bytes), g.checksum);
    text += line;
  }
  return text;
}

CheckpointLineage::CheckpointLineage(std::string base_path,
                                     int max_generations, RetryPolicy retry)
    : base_path_(std::move(base_path)),
      max_generations_(std::max(1, max_generations)),
      retry_(retry) {}

std::string CheckpointLineage::GenerationPath(uint64_t seq) const {
  return base_path_ + ".g" + std::to_string(seq);
}

std::vector<Generation> CheckpointLineage::ScanGenerations() const {
  std::vector<Generation> gens;
  namespace fs = std::filesystem;
  const fs::path base(base_path_);
  const std::string prefix = base.filename().string() + ".g";
  std::error_code ec;
  fs::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string suffix = name.substr(prefix.size());
    if (!AllDigits(suffix)) continue;  // skips .tmp leftovers
    Generation g;
    g.seq = std::strtoull(suffix.c_str(), nullptr, 10);
    std::string container;
    if (!io::ReadFileBytes(entry.path().string(), &container)) continue;
    g.bytes = static_cast<int64_t>(container.size());
    g.checksum = Fnv1a64(container);
    gens.push_back(g);
  }
  std::sort(gens.begin(), gens.end(),
            [](const Generation& a, const Generation& b) {
              return a.seq < b.seq;
            });
  return gens;
}

std::vector<Generation> CheckpointLineage::LiveGenerations(
    bool* from_manifest) const {
  std::string text;
  std::vector<Generation> gens;
  if (io::ReadFileBytes(manifest_path(), &text) &&
      ParseLineageManifest(text, &gens)) {
    if (from_manifest != nullptr) *from_manifest = true;
    return gens;
  }
  if (from_manifest != nullptr) *from_manifest = false;
  return ScanGenerations();
}

bool CheckpointLineage::Save(const JobCheckpoint& ckpt, int64_t* bytes_out) {
  // Next seq must clear every on-disk generation — including an orphan a
  // crash left unlisted — or a stale file would shadow the new write.
  std::vector<Generation> live = LiveGenerations(nullptr);
  uint64_t next_seq = 1;
  for (const Generation& g : live) next_seq = std::max(next_seq, g.seq + 1);
  for (const Generation& g : ScanGenerations()) {
    next_seq = std::max(next_seq, g.seq + 1);
  }

  const std::string payload = SerializeJobCheckpoint(ckpt);
  Generation fresh;
  fresh.seq = next_seq;
  fresh.bytes = static_cast<int64_t>(payload.size());
  // Checksum of the *intended* bytes: an injected torn/bitflip commit that
  // lies about success is caught because the manifest remembers what the
  // file should have hashed to.
  fresh.checksum = Fnv1a64(payload);
  const std::string gen_path = GenerationPath(fresh.seq);
  if (!retry_.Run([&] { return AtomicWriteFile(gen_path, payload); })) {
    return false;
  }

  live.push_back(fresh);
  std::sort(live.begin(), live.end(),
            [](const Generation& a, const Generation& b) {
              return a.seq < b.seq;
            });
  std::vector<Generation> pruned;
  while (static_cast<int>(live.size()) > max_generations_) {
    pruned.push_back(live.front());
    live.erase(live.begin());
  }
  const std::string manifest = FormatLineageManifest(live);
  if (!retry_.Run([&] {
        return io::AtomicReplace(manifest_path(), manifest,
                                 io::FileKind::kManifest);
      })) {
    return false;
  }
  // Prune only after the manifest stopped referencing the old generations;
  // a crash in between leaves orphans the scan fallback still understands.
  for (const Generation& g : pruned) {
    (void)io::RemoveFile(GenerationPath(g.seq));
  }

  if (bytes_out != nullptr) *bytes_out = fresh.bytes;
  auto& registry = obs::MetricRegistry::Global();
  registry.Add(obs::Counter::kCheckpointWrites, 1);
  registry.Add(obs::Counter::kCheckpointBytes, fresh.bytes);
  return true;
}

LineageLoadResult CheckpointLineage::Load(JobCheckpoint* out) const {
  LineageLoadResult result;
  bool from_manifest = false;
  std::vector<Generation> live = LiveGenerations(&from_manifest);
  if (from_manifest) {
    // Union in orphans (a generation committed after the last manifest
    // write); they are newer than anything listed and equally valid.
    std::set<uint64_t> listed;
    for (const Generation& g : live) listed.insert(g.seq);
    for (const Generation& g : ScanGenerations()) {
      if (listed.count(g.seq) == 0) live.push_back(g);
    }
    std::sort(live.begin(), live.end(),
              [](const Generation& a, const Generation& b) {
                return a.seq < b.seq;
              });
  }
  if (live.empty()) {
    result.error = "no checkpoint";
    return result;
  }
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    const std::string path = GenerationPath(it->seq);
    std::string container;
    std::string reason;
    if (!io::ReadFileBytes(path, &container)) {
      reason = "unreadable";
    } else if (from_manifest && it->checksum != 0 &&
               (static_cast<int64_t>(container.size()) != it->bytes ||
                Fnv1a64(container) != it->checksum)) {
      reason = "manifest checksum mismatch";
    } else if (!ParseJobCheckpoint(container, out)) {
      reason = "corrupt container";
    } else {
      result.ok = true;
      result.seq = it->seq;
      break;
    }
    ++result.fallbacks;
    if (!result.error.empty()) result.error += "; ";
    result.error += "g" + std::to_string(it->seq) + ": " + reason;
  }
  if (result.fallbacks > 0) {
    obs::MetricRegistry::Global().Add(obs::Counter::kCheckpointFallbacks,
                                      result.fallbacks);
  }
  if (!result.ok && result.error.empty()) result.error = "no checkpoint";
  return result;
}

bool CheckpointLineage::Remove() {
  bool ok = true;
  std::set<uint64_t> seqs;
  for (const Generation& g : LiveGenerations(nullptr)) seqs.insert(g.seq);
  for (const Generation& g : ScanGenerations()) seqs.insert(g.seq);
  for (uint64_t seq : seqs) {
    const std::string path = GenerationPath(seq);
    if (!io::RemoveFile(path)) ok = false;
    (void)io::RemoveFile(path + ".tmp");
  }
  if (!io::RemoveFile(manifest_path())) ok = false;
  (void)io::RemoveFile(manifest_path() + ".tmp");
  return ok;
}

}  // namespace benchtemp::robustness
