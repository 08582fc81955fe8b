#include "robustness/lineage.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "io/file.h"
#include "obs/metrics.h"

namespace benchtemp::robustness {

namespace {

/// One manifest row. The checksum is the FNV-1a of the bytes Save meant
/// to commit, so a torn or flipped commit that reported success still
/// fails the check.
struct Row {
  int64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Manifest rows by seq.
using Rows = std::map<uint64_t, Row>;

/// Manifest format: text, first line `btlineage|1`, then one
/// `gen|<seq>|<bytes>|<checksum hex>` per generation, ascending seq. A
/// torn last line (no newline) is dropped; any other malformed line
/// rejects the whole manifest. `out` is untouched on failure.
bool ParseManifest(const std::string& text, Rows* out) {
  Rows rows;
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
    Row row;
    char* cursor = nullptr;
    const char* start = line.c_str() + 4;
    const uint64_t seq = std::strtoull(start, &cursor, 10);
    if (cursor == start || *cursor != '|') return false;
    start = cursor + 1;
    row.bytes = static_cast<int64_t>(std::strtoll(start, &cursor, 10));
    if (cursor == start || *cursor != '|') return false;
    start = cursor + 1;
    row.checksum = std::strtoull(start, &cursor, 16);
    if (cursor == start || *cursor != '\0') return false;
    rows[seq] = row;
  }
  if (!saw_header) return false;
  *out = std::move(rows);
  return true;
}

std::string FormatManifest(const Rows& rows) {
  std::string text = "btlineage|1\n";
  for (const auto& [seq, row] : rows) {
    char line[128];
    std::snprintf(line, sizeof(line), "gen|%" PRIu64 "|%lld|%016" PRIx64 "\n",
                  seq, static_cast<long long>(row.bytes), row.checksum);
    text += line;
  }
  return text;
}

std::string GenerationFile(const std::string& base_path, uint64_t seq) {
  return base_path + ".g" + std::to_string(seq);
}

/// The files of the lineage at `base_path`, by name alone.
struct Files {
  std::vector<uint64_t> seqs;  // generation files, ascending
  std::vector<std::string> tmps;
};

Files ListFiles(const std::string& base_path) {
  namespace fs = std::filesystem;
  const fs::path base(base_path);
  const std::string own = base.filename().string();
  fs::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  Files files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    LineageFileName name;
    if (!entry.is_regular_file(ec) ||
        !ParseLineageFileName(entry.path().filename().string(), &name) ||
        name.base != own) {
      continue;
    }
    if (name.tmp) {
      files.tmps.push_back(entry.path().string());
    } else if (!name.manifest) {
      files.seqs.push_back(name.seq);
    }
  }
  std::sort(files.seqs.begin(), files.seqs.end());
  std::sort(files.tmps.begin(), files.tmps.end());
  return files;
}

/// The verdict: a listed generation (`row` non-null) must exist, match its
/// row and parse; an orphan must parse. `found` receives the row the file
/// on disk deserves, `parsed` the checkpoint of a valid generation.
GenerationVerdict Judge(const std::string& path, const Row* row, Row* found,
                        JobCheckpoint* parsed) {
  std::string bytes;
  if (!io::ReadFileBytes(path, &bytes) && row != nullptr) {
    return GenerationVerdict::kMissing;
  }
  found->bytes = static_cast<int64_t>(bytes.size());
  found->checksum = Fnv1a64(bytes);
  if (row != nullptr &&
      (row->bytes != found->bytes || row->checksum != found->checksum)) {
    return GenerationVerdict::kMismatch;
  }
  return ParseJobCheckpoint(bytes, parsed) ? GenerationVerdict::kValid
                                           : GenerationVerdict::kRejected;
}

/// Inspect(), plus the rows of the valid generations for Repair().
LineageInventory Survey(const std::string& base_path,
                        JobCheckpoint* newest_valid, Rows* valid_rows) {
  LineageInventory inventory;
  Rows rows;
  std::string text;
  inventory.has_manifest = io::ReadFileBytes(base_path + ".lineage", &text);
  inventory.manifest_ok = inventory.has_manifest && ParseManifest(text, &rows);
  Files files = ListFiles(base_path);
  inventory.stale_tmps = std::move(files.tmps);
  std::set<uint64_t> seqs(files.seqs.begin(), files.seqs.end());
  for (const auto& [seq, row] : rows) seqs.insert(seq);

  // Newest first, so the first valid generation is the one parsed into
  // `newest_valid` (a failed parse leaves its target untouched).
  JobCheckpoint scratch;
  JobCheckpoint* target = newest_valid != nullptr ? newest_valid : &scratch;
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    const auto listed = rows.find(*it);
    const Row* row = listed == rows.end() ? nullptr : &listed->second;
    Row found;
    GenerationStatus status;
    status.seq = *it;
    status.listed = row != nullptr;
    status.verdict =
        Judge(GenerationFile(base_path, *it), row, &found, target);
    if (status.verdict == GenerationVerdict::kValid) {
      target = &scratch;
      if (valid_rows != nullptr) (*valid_rows)[*it] = found;
    }
    inventory.generations.push_back(status);
  }
  std::reverse(inventory.generations.begin(), inventory.generations.end());
  return inventory;
}

}  // namespace

bool ParseLineageFileName(const std::string& name, LineageFileName* out) {
  LineageFileName parsed;
  std::string stem = name;
  if (stem.ends_with(".tmp")) {
    parsed.tmp = true;
    stem.resize(stem.size() - 4);
  }
  if (stem.ends_with(".lineage")) {
    parsed.manifest = true;
    parsed.base = stem.substr(0, stem.size() - 8);
  } else {
    const size_t dot_g = stem.rfind(".g");
    if (dot_g == std::string::npos) return false;
    const std::string digits = stem.substr(dot_g + 2);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    parsed.base = stem.substr(0, dot_g);
    parsed.seq = std::strtoull(digits.c_str(), nullptr, 10);
  }
  if (parsed.base.empty()) return false;
  *out = std::move(parsed);
  return true;
}

const char* VerdictReason(GenerationVerdict verdict) {
  static constexpr const char* kReasons[] = {
      "valid", "listed generation missing", "manifest checksum mismatch",
      "corrupt container"};
  return kReasons[static_cast<int>(verdict)];
}

bool LineageInventory::unrecoverable() const {
  if (!has_manifest && generations.empty()) return false;
  return std::none_of(generations.begin(), generations.end(),
                      [](const GenerationStatus& g) {
                        return g.verdict == GenerationVerdict::kValid;
                      });
}

CheckpointLineage::CheckpointLineage(std::string base_path,
                                     int max_generations)
    : base_path_(std::move(base_path)),
      max_generations_(std::max(1, max_generations)) {}

std::string CheckpointLineage::GenerationPath(uint64_t seq) const {
  return GenerationFile(base_path_, seq);
}

bool CheckpointLineage::Save(const JobCheckpoint& ckpt, int64_t* bytes_out) {
  Rows rows;
  std::string text;
  if (io::ReadFileBytes(manifest_path(), &text)) {
    (void)ParseManifest(text, &rows);  // unparseable: start a fresh one
  }
  // Next seq must clear every listed and every on-disk generation —
  // including an orphan a crash left unlisted — or a stale file would
  // shadow the new write.
  const Files files = ListFiles(base_path_);
  std::set<uint64_t> seqs(files.seqs.begin(), files.seqs.end());
  for (const auto& [seq, row] : rows) seqs.insert(seq);
  const uint64_t next_seq = seqs.empty() ? 1 : *seqs.rbegin() + 1;

  const std::string payload = SerializeJobCheckpoint(ckpt);
  const Row fresh{static_cast<int64_t>(payload.size()), Fnv1a64(payload)};
  if (!io::RunWithRetry([&] {
        return io::AtomicReplace(GenerationPath(next_seq), payload,
                                 io::FileKind::kCheckpoint);
      })) {
    return false;
  }
  rows[next_seq] = fresh;
  seqs.insert(next_seq);

  // Retention spans the whole inventory, orphans included: anything older
  // than the newest max_generations_ seqs leaves the manifest now and the
  // disk once the committed manifest stops listing it.
  std::vector<uint64_t> pruned;
  while (static_cast<int>(seqs.size()) > max_generations_) {
    pruned.push_back(*seqs.begin());
    rows.erase(*seqs.begin());
    seqs.erase(seqs.begin());
  }
  const std::string manifest = FormatManifest(rows);
  if (!io::RunWithRetry([&] {
        return io::AtomicReplace(manifest_path(), manifest,
                                 io::FileKind::kManifest);
      })) {
    return false;
  }
  for (uint64_t seq : pruned) (void)io::RemoveFile(GenerationPath(seq));

  if (bytes_out != nullptr) *bytes_out = fresh.bytes;
  auto& registry = obs::MetricRegistry::Global();
  registry.Add(obs::Counter::kCheckpointWrites, 1);
  registry.Add(obs::Counter::kCheckpointBytes, fresh.bytes);
  return true;
}

LineageInventory CheckpointLineage::Inspect(
    JobCheckpoint* newest_valid) const {
  return Survey(base_path_, newest_valid, nullptr);
}

LineageLoadResult CheckpointLineage::Load(JobCheckpoint* out) const {
  LineageLoadResult result;
  const LineageInventory inventory = Inspect(out);
  for (auto it = inventory.generations.rbegin();
       it != inventory.generations.rend(); ++it) {
    if (it->verdict == GenerationVerdict::kValid) {
      result.ok = true;
      result.seq = it->seq;
      break;
    }
    ++result.fallbacks;
    if (!result.error.empty()) result.error += "; ";
    result.error +=
        "g" + std::to_string(it->seq) + ": " + VerdictReason(it->verdict);
  }
  if (result.fallbacks > 0) {
    obs::MetricRegistry::Global().Add(obs::Counter::kCheckpointFallbacks,
                                      result.fallbacks);
  }
  if (!result.ok && result.error.empty()) result.error = "no checkpoint";
  return result;
}

int CheckpointLineage::Repair() {
  Rows valid;
  const LineageInventory inventory = Survey(base_path_, nullptr, &valid);
  if (inventory.unrecoverable()) return 0;
  int repaired = 0;
  for (const GenerationStatus& g : inventory.generations) {
    // A missing generation has no file to drop.
    if (g.verdict != GenerationVerdict::kValid &&
        g.verdict != GenerationVerdict::kMissing &&
        io::RemoveFile(GenerationPath(g.seq))) {
      ++repaired;
    }
  }
  for (const std::string& tmp : inventory.stale_tmps) {
    if (io::RemoveFile(tmp)) ++repaired;
  }
  // Nothing but tmps (a first save killed mid-write): writing an empty
  // manifest would turn the lineage unrecoverable.
  if (valid.empty()) return repaired;
  const std::string fixed = FormatManifest(valid);
  std::string current;
  if ((!io::ReadFileBytes(manifest_path(), &current) || current != fixed) &&
      io::AtomicReplace(manifest_path(), fixed, io::FileKind::kManifest)) {
    ++repaired;
  }
  return repaired;
}

bool CheckpointLineage::Remove() {
  const Files files = ListFiles(base_path_);
  bool ok = true;
  for (uint64_t seq : files.seqs) {
    ok = io::RemoveFile(GenerationPath(seq)) && ok;
  }
  for (const std::string& tmp : files.tmps) ok = io::RemoveFile(tmp) && ok;
  return io::RemoveFile(manifest_path()) && ok;
}

}  // namespace benchtemp::robustness
