// Tests of the checked I/O shim (src/io), the fixed retry schedule, the
// checkpoint lineage's one verdict and the offline fsck pass — the
// plumbing under DESIGN.md "Failure model v2". Fault injection drives
// every simulated disk failure; each test leaves the process-wide injector
// disarmed.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "io/file.h"
#include "robustness/checkpoint.h"
#include "robustness/fsck.h"
#include "robustness/lineage.h"

namespace benchtemp {
namespace {

namespace fs = std::filesystem;

using io::AtomicReplace;
using io::File;
using io::FileKind;
using io::ReadFileBytes;
using io::RetryBackoffMs;
using io::RunWithRetry;
using robustness::CheckpointLineage;
using base::FaultInjector;
using base::FaultSite;
using base::FaultSpec;
using robustness::FsckDirectory;
using robustness::FsckReport;
using robustness::JobCheckpoint;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return "/tmp/benchtemp_io_" + name;
}

FaultSpec AtStep(int step, int count = 1) {
  FaultSpec spec;
  spec.at_step = step;
  spec.count = count;
  return spec;
}

// ---------------------------------------------------------------------------
// io::File basics

TEST_F(IoTest, WriteSyncCloseRoundTrip) {
  const std::string path = TempPath("roundtrip.bin");
  File f;
  ASSERT_TRUE(f.OpenWrite(path));
  EXPECT_TRUE(f.Write(std::string("hello ")));
  EXPECT_TRUE(f.Write("world", 5));
  EXPECT_TRUE(f.Sync());
  EXPECT_TRUE(f.Close());
  EXPECT_FALSE(f.is_open());

  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, "hello world");

  File append;
  ASSERT_TRUE(append.OpenAppend(path));
  EXPECT_TRUE(append.Write(std::string("!")));
  EXPECT_TRUE(append.Close());
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, "hello world!");
  unlink(path.c_str());
}

TEST_F(IoTest, OpenFailureIsReported) {
  File f;
  EXPECT_FALSE(f.OpenWrite("/nonexistent-dir-zzz/file.bin"));
  EXPECT_FALSE(f.is_open());
  std::string bytes;
  EXPECT_FALSE(ReadFileBytes("/nonexistent-dir-zzz/file.bin", &bytes));
}

TEST_F(IoTest, RemoveFileTreatsMissingAsSuccess) {
  const std::string path = TempPath("removable.bin");
  { std::ofstream out(path); out << "x"; }
  EXPECT_TRUE(io::RemoveFile(path));
  EXPECT_TRUE(io::RemoveFile(path));  // already gone
}

// ---------------------------------------------------------------------------
// Injected write failures latch and are observable at Close()

TEST_F(IoTest, ShortWriteLatchesFailure) {
  FaultInjector::Global().Arm(FaultSite::kShortWrite, AtStep(0));
  const std::string path = TempPath("short.bin");
  File f;
  ASSERT_TRUE(f.OpenWrite(path));
  EXPECT_FALSE(f.Write(std::string("0123456789")));
  EXPECT_FALSE(f.ok());
  // Latched: later writes are no-ops, Close reports the failure once.
  EXPECT_FALSE(f.Write(std::string("more")));
  EXPECT_FALSE(f.Close());
  unlink(path.c_str());
}

TEST_F(IoTest, EioOnWriteAndFsyncFail) {
  const std::string path = TempPath("eio.bin");
  {
    FaultInjector::Global().Arm(FaultSite::kEioWrite, AtStep(0));
    File f;
    ASSERT_TRUE(f.OpenWrite(path));
    EXPECT_FALSE(f.Write(std::string("payload")));
    EXPECT_FALSE(f.Close());
  }
  FaultInjector::Global().DisarmAll();
  {
    FaultInjector::Global().Arm(FaultSite::kEioFsync, AtStep(0));
    File f;
    ASSERT_TRUE(f.OpenWrite(path));
    EXPECT_TRUE(f.Write(std::string("payload")));
    EXPECT_FALSE(f.Sync());
    EXPECT_FALSE(f.Close());
  }
  unlink(path.c_str());
}

TEST_F(IoTest, EioManifestScopedToManifestKind) {
  FaultSpec spec = AtStep(0, 1 << 20);
  FaultInjector::Global().Arm(FaultSite::kEioManifest, spec);

  // Checkpoint-kind writes are untouched by the manifest fault site.
  const std::string ckpt = TempPath("scoped.ckpt");
  File a;
  ASSERT_TRUE(a.OpenWrite(ckpt, FileKind::kCheckpoint));
  EXPECT_TRUE(a.Write(std::string("checkpoint bytes")));
  EXPECT_TRUE(a.Close());

  const std::string manifest = TempPath("scoped.manifest");
  File b;
  ASSERT_TRUE(b.OpenAppend(manifest, FileKind::kManifest));
  EXPECT_FALSE(b.Write(std::string("journal line\n")));
  EXPECT_FALSE(b.Close());
  unlink(ckpt.c_str());
  unlink(manifest.c_str());
}

// ---------------------------------------------------------------------------
// AtomicReplace: torn and bit-flipped commits are silent by design

TEST_F(IoTest, TornCheckpointCommitsTruncatedBytesSilently) {
  const std::string path = TempPath("torn.ckpt");
  ASSERT_TRUE(AtomicReplace(path, "old generation", FileKind::kCheckpoint));

  FaultSpec spec = AtStep(0);  // Arm resets the probe clock
  spec.seed = 99;
  FaultInjector::Global().Arm(FaultSite::kTornCheckpoint, spec);
  const std::string intended(256, 'G');
  // Reports success: the whole point is that only a checksum catches it.
  EXPECT_TRUE(AtomicReplace(path, intended, FileKind::kCheckpoint));

  std::string committed;
  ASSERT_TRUE(ReadFileBytes(path, &committed));
  EXPECT_LT(committed.size(), intended.size());
  EXPECT_NE(robustness::Fnv1a64(committed), robustness::Fnv1a64(intended));
  unlink(path.c_str());
}

TEST_F(IoTest, BitflipCheckpointPreservesSizeButNotChecksum) {
  const std::string path = TempPath("bitflip.ckpt");
  FaultSpec spec = AtStep(0);
  spec.seed = 1234;
  FaultInjector::Global().Arm(FaultSite::kBitflipCheckpoint, spec);
  const std::string intended(256, 'G');
  EXPECT_TRUE(AtomicReplace(path, intended, FileKind::kCheckpoint));

  std::string committed;
  ASSERT_TRUE(ReadFileBytes(path, &committed));
  ASSERT_EQ(committed.size(), intended.size());
  EXPECT_NE(committed, intended);
  // Exactly one bit differs.
  int bit_diffs = 0;
  for (size_t i = 0; i < committed.size(); ++i) {
    unsigned char x = static_cast<unsigned char>(committed[i] ^ intended[i]);
    while (x != 0) {
      bit_diffs += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(bit_diffs, 1);
  unlink(path.c_str());
}

TEST_F(IoTest, GenericAndManifestKindsNeverProbeCheckpointCorruption) {
  FaultSpec spec = AtStep(0, 1 << 20);
  spec.seed = 7;
  FaultInjector::Global().Arm(FaultSite::kTornCheckpoint, spec);
  FaultInjector::Global().Arm(FaultSite::kBitflipCheckpoint, spec);

  const std::string path = TempPath("unscoped.txt");
  const std::string payload = "manifest payload\n";
  ASSERT_TRUE(AtomicReplace(path, payload, FileKind::kManifest));
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, payload);
  ASSERT_TRUE(AtomicReplace(path, payload, FileKind::kGeneric));
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, payload);
  unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Retry: one fixed schedule, bounded attempts

TEST_F(IoTest, RetryBackoffFollowsTheFixedSchedule) {
  // Three attempts; 1 ms doubling per retry up to a 50 ms cap; no jitter,
  // so the schedule is the same for every writer and every run.
  EXPECT_EQ(io::kRetryAttempts, 3);
  const int64_t expected[] = {0, 1, 2, 4, 8, 16, 32, 50, 50};
  for (int attempt = 0; attempt < 9; ++attempt) {
    EXPECT_EQ(RetryBackoffMs(attempt), expected[attempt]) << attempt;
  }
  EXPECT_EQ(RetryBackoffMs(-1), 0);
  EXPECT_EQ(RetryBackoffMs(1000), 50);
}

TEST_F(IoTest, RunRetriesUntilSuccessAndGivesUp) {
  int calls = 0;
  EXPECT_TRUE(RunWithRetry([&] { return ++calls == 3; }));
  EXPECT_EQ(calls, 3);

  calls = 0;
  EXPECT_FALSE(RunWithRetry([&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 3);
}

TEST_F(IoTest, RetryRidesOutTransientEioBurst) {
  // Two injected EIO hits, then the disk recovers: the third attempt lands
  // the checkpoint.
  FaultInjector::Global().Arm(FaultSite::kEioWrite, AtStep(0, 2));
  const std::string path = TempPath("transient.ckpt");
  const std::string payload = "generation payload";
  EXPECT_TRUE(RunWithRetry(
      [&] { return AtomicReplace(path, payload, FileKind::kCheckpoint); }));
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, payload);
  unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Offline fsck: detect, repair, refuse the unrecoverable

JobCheckpoint EpochCheckpoint(int epoch) {
  JobCheckpoint c;
  c.next_epoch = epoch;
  c.seed = 5;
  c.params = "params for epoch " + std::to_string(epoch);
  return c;
}

/// Fresh scratch directory holding one saved lineage of `generations`.
std::string MakeLineageDir(const std::string& name, int generations,
                           int max_generations = 3) {
  const std::string dir = TempPath("fsck_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  CheckpointLineage lineage(dir + "/job.ckpt", max_generations);
  for (int epoch = 1; epoch <= generations; ++epoch) {
    EXPECT_TRUE(lineage.Save(EpochCheckpoint(epoch)));
  }
  return dir;
}

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x20);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(IoTest, FsckPassesACleanLineage) {
  const std::string dir = MakeLineageDir("clean", 3);
  const FsckReport report = FsckDirectory(dir, /*repair=*/false);
  EXPECT_EQ(report.lineages, 1);
  EXPECT_EQ(report.generations, 3);
  EXPECT_EQ(report.corrupt, 0);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.issues.empty());
  EXPECT_EQ(robustness::FormatFsckReport(report),
            "lineages: 1\ngenerations: 3\ncorrupt: 0\norphans: 0\n"
            "stale_tmps: 0\nrepaired: 0\nunrecoverable: 0\n");
  fs::remove_all(dir);
}

TEST_F(IoTest, FsckDetectsEveryInjectedCorruption) {
  const std::string dir = MakeLineageDir("detect", 3);
  CheckpointLineage lineage(dir + "/job.ckpt", 3);
  FlipByte(lineage.GenerationPath(2), 10);
  FlipByte(lineage.GenerationPath(3), 40);

  const FsckReport report = FsckDirectory(dir, /*repair=*/false);
  EXPECT_EQ(report.corrupt, 2);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.unrecoverable, 0);  // generation 1 still loads
  ASSERT_GE(report.issues.size(), 2u);
  // The report names the offending files.
  bool found_g2 = false;
  bool found_g3 = false;
  for (const auto& issue : report.issues) {
    found_g2 = found_g2 || issue.path == lineage.GenerationPath(2);
    found_g3 = found_g3 || issue.path == lineage.GenerationPath(3);
  }
  EXPECT_TRUE(found_g2);
  EXPECT_TRUE(found_g3);

  // The formatted report is what btfsck prints, byte for byte.
  EXPECT_EQ(robustness::FormatFsckReport(report),
            "lineages: 1\ngenerations: 3\ncorrupt: 2\norphans: 0\n"
            "stale_tmps: 0\nrepaired: 0\nunrecoverable: 0\n"
            "issue|" + dir + "/job.ckpt.g2|manifest checksum mismatch\n"
            "issue|" + dir + "/job.ckpt.g3|manifest checksum mismatch\n");
  fs::remove_all(dir);
}

TEST_F(IoTest, FsckRepairDropsCorruptAdoptsOrphansRewritesManifest) {
  const std::string dir = MakeLineageDir("repair", 2);
  CheckpointLineage lineage(dir + "/job.ckpt", 3);
  FlipByte(lineage.GenerationPath(2), 25);
  // Orphan from a crash between generation commit and manifest commit.
  ASSERT_TRUE(AtomicReplace(
      lineage.GenerationPath(5),
      robustness::SerializeJobCheckpoint(EpochCheckpoint(5)),
      FileKind::kCheckpoint));
  // Stale tmp from a torn atomic replace.
  { std::ofstream out(lineage.GenerationPath(6) + ".tmp"); out << "junk"; }

  FsckReport report = FsckDirectory(dir, /*repair=*/true);
  EXPECT_EQ(report.corrupt, 1);
  EXPECT_EQ(report.orphans, 1);
  EXPECT_EQ(report.stale_tmps, 1);
  EXPECT_EQ(report.unrecoverable, 0);
  // Dropped g2, deleted the tmp, rewrote the manifest.
  EXPECT_EQ(robustness::FormatFsckReport(report),
            "lineages: 1\ngenerations: 3\ncorrupt: 1\norphans: 1\n"
            "stale_tmps: 1\nrepaired: 3\nunrecoverable: 0\n"
            "issue|" + dir + "/job.ckpt.g2|manifest checksum mismatch\n"
            "issue|" + dir + "/job.ckpt.g5|orphan generation (valid)\n"
            "issue|" + dir +
                "/job.ckpt.g6.tmp|stale tmp from interrupted commit\n");

  // Post-repair the directory verifies clean and the orphan is live.
  report = FsckDirectory(dir, /*repair=*/false);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.orphans, 0);
  EXPECT_EQ(report.stale_tmps, 0);
  JobCheckpoint loaded;
  const auto result = lineage.Load(&loaded);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.seq, 5u);
  EXPECT_EQ(loaded.next_epoch, 5);
  fs::remove_all(dir);
}

TEST_F(IoTest, FsckReportsUnrecoverableLineage) {
  const std::string dir = MakeLineageDir("dead", 2, 2);
  CheckpointLineage lineage(dir + "/job.ckpt", 2);
  FlipByte(lineage.GenerationPath(1), 12);
  FlipByte(lineage.GenerationPath(2), 12);

  const FsckReport report = FsckDirectory(dir, /*repair=*/false);
  EXPECT_EQ(report.unrecoverable, 1);
  EXPECT_FALSE(report.clean());
  const std::string text =
      "lineages: 1\ngenerations: 2\ncorrupt: 2\norphans: 0\n"
      "stale_tmps: 0\nrepaired: 0\nunrecoverable: 1\n"
      "issue|" + dir + "/job.ckpt|no valid generation survives\n"
      "issue|" + dir + "/job.ckpt.g1|manifest checksum mismatch\n"
      "issue|" + dir + "/job.ckpt.g2|manifest checksum mismatch\n";
  EXPECT_EQ(robustness::FormatFsckReport(report), text);

  // Repair refuses to touch it: every byte stays for the post-mortem.
  const FsckReport repaired = FsckDirectory(dir, /*repair=*/true);
  EXPECT_EQ(robustness::FormatFsckReport(repaired), text);
  std::string unused;
  EXPECT_TRUE(ReadFileBytes(lineage.GenerationPath(1), &unused));
  EXPECT_TRUE(ReadFileBytes(lineage.GenerationPath(2), &unused));
  fs::remove_all(dir);
}

TEST_F(IoTest, FsckRepairOfAKilledFirstSaveWritesNoManifest) {
  // A kill during the very first save leaves only a tmp. Repair deletes it
  // and must not conjure an empty manifest, which would read back as an
  // unrecoverable lineage.
  const std::string dir = TempPath("fsck_first_save");
  fs::remove_all(dir);
  fs::create_directories(dir);
  { std::ofstream out(dir + "/job.ckpt.g1.tmp"); out << "junk"; }

  FsckReport report = FsckDirectory(dir, /*repair=*/true);
  EXPECT_EQ(report.stale_tmps, 1);
  EXPECT_EQ(report.repaired, 1);
  report = FsckDirectory(dir, /*repair=*/false);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.lineages, 0);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// One verdict: Load and fsck agree on every damaged lineage

/// Replaces field `field` (0 = bytes, 1 = checksum) of generation `seq`'s
/// manifest row with `value`.
void SetManifestField(const std::string& manifest, uint64_t seq, int field,
                      const std::string& value) {
  std::string text;
  ASSERT_TRUE(ReadFileBytes(manifest, &text));
  const std::string key = "gen|" + std::to_string(seq) + "|";
  size_t begin = text.find(key);
  ASSERT_NE(begin, std::string::npos);
  begin += key.size();
  if (field == 1) begin = text.find('|', begin) + 1;
  const size_t end = text.find_first_of("|\n", begin);
  text.replace(begin, end - begin, value);
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << text;
}

void WriteGeneration(const std::string& path, int epoch) {
  ASSERT_TRUE(AtomicReplace(
      path, robustness::SerializeJobCheckpoint(EpochCheckpoint(epoch)),
      FileKind::kCheckpoint));
}

TEST_F(IoTest, LoadAndFsckAgreeOnEveryDamagedLineage) {
  struct Case {
    const char* name;
    std::function<void(const CheckpointLineage&)> damage;
    uint64_t seq;   // generation Load resumes from
    int fallbacks;  // newer generations it skips
  };
  const auto g = [](const CheckpointLineage& l, uint64_t seq) {
    return l.GenerationPath(seq);
  };
  const std::vector<Case> cases = {
      {"header flip", [&](const auto& l) { FlipByte(g(l, 3), 0); }, 2, 1},
      {"body flip", [&](const auto& l) { FlipByte(g(l, 3), 60); }, 2, 1},
      {"trailing checksum flip",
       [&](const auto& l) { FlipByte(g(l, 3), fs::file_size(g(l, 3)) - 1); },
       2, 1},
      {"torn generation",
       [&](const auto& l) {
         fs::resize_file(g(l, 3), fs::file_size(g(l, 3)) / 2);
       },
       2, 1},
      {"listed file missing", [&](const auto& l) { fs::remove(g(l, 3)); },
       2, 1},
      {"two newest damaged",
       [&](const auto& l) {
         FlipByte(g(l, 3), 0);
         fs::remove(g(l, 2));
       },
       1, 2},
      {"valid orphan", [&](const auto& l) { WriteGeneration(g(l, 4), 4); },
       4, 0},
      {"corrupt orphan",
       [&](const auto& l) {
         WriteGeneration(g(l, 4), 4);
         FlipByte(g(l, 4), 20);
       },
       3, 1},
      {"corrupt manifest",
       [](const auto& l) {
         std::ofstream(l.manifest_path(), std::ios::trunc) << "garbage\n";
       },
       3, 0},
      {"missing manifest",
       [](const auto& l) { fs::remove(l.manifest_path()); }, 3, 0},
      {"row size disagrees",
       [&](const auto& l) {
         SetManifestField(l.manifest_path(), 3, 0,
                          std::to_string(fs::file_size(g(l, 3)) + 1));
       },
       2, 1},
      {"row checksum disagrees",
       [](const auto& l) {
         SetManifestField(l.manifest_path(), 3, 1, "0123456789abcdef");
       },
       2, 1},
      // A different, valid container of the same size under a row whose
      // checksum is 0: zero is a checksum like any other.
      {"row checksum 0",
       [&](const auto& l) {
         WriteGeneration(g(l, 3), 9);
         SetManifestField(l.manifest_path(), 3, 1, "0");
       },
       2, 1},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = MakeLineageDir("agree", 3);
    const CheckpointLineage lineage(dir + "/job.ckpt", 3);
    c.damage(lineage);

    const FsckReport report = FsckDirectory(dir, /*repair=*/false);
    std::set<std::string> flagged;  // generation files fsck calls invalid
    for (const auto& issue : report.issues) {
      if (issue.reason != "corrupt manifest" &&
          issue.reason != "orphan generation (valid)") {
        flagged.insert(issue.path);
      }
    }
    uint64_t fsck_newest_valid = 0;
    int generations = 0;
    for (uint64_t seq = 1; seq <= 9; ++seq) {
      const std::string path = lineage.GenerationPath(seq);
      if (!fs::exists(path) && flagged.count(path) == 0) continue;
      ++generations;
      if (flagged.count(path) == 0) fsck_newest_valid = seq;
    }
    EXPECT_EQ(report.generations, generations);
    int fsck_newer_flagged = 0;
    for (uint64_t seq = fsck_newest_valid + 1; seq <= 9; ++seq) {
      fsck_newer_flagged += static_cast<int>(
          flagged.count(lineage.GenerationPath(seq)));
    }

    JobCheckpoint loaded;
    const auto result = lineage.Load(&loaded);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.seq, fsck_newest_valid);
    EXPECT_EQ(result.fallbacks, fsck_newer_flagged);
    EXPECT_EQ(result.seq, c.seq);
    EXPECT_EQ(result.fallbacks, c.fallbacks);
    EXPECT_EQ(loaded.next_epoch, static_cast<int>(c.seq));
    fs::remove_all(dir);
  }
}

TEST_F(IoTest, SavePrunesOrphansOutsideTheRetentionWindow) {
  const std::string dir = MakeLineageDir("retention", 2);
  CheckpointLineage lineage(dir + "/job.ckpt", 3);
  // A crash between the generation commit and the manifest commit leaves
  // g3 unlisted; the retention window still covers it.
  WriteGeneration(lineage.GenerationPath(3), 3);
  for (int epoch = 4; epoch <= 8; ++epoch) {
    ASSERT_TRUE(lineage.Save(EpochCheckpoint(epoch)));
  }
  std::set<std::string> left;
  for (const auto& entry : fs::directory_iterator(dir)) {
    left.insert(entry.path().filename().string());
  }
  EXPECT_EQ(left, (std::set<std::string>{"job.ckpt.g6", "job.ckpt.g7",
                                         "job.ckpt.g8", "job.ckpt.lineage"}));
  EXPECT_TRUE(FsckDirectory(dir, /*repair=*/false).clean());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace benchtemp
