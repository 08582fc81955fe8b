#ifndef BENCHTEMP_IO_FILE_H_
#define BENCHTEMP_IO_FILE_H_

// Fault-shimmed file I/O for the durability layer (DESIGN.md "Failure
// model v2").
//
// Every robustness-layer byte that reaches disk flows through io::File, so
// one choke point (a) checks every fwrite/fflush/fsync/fclose return value
// instead of assuming the kernel cooperated, and (b) gives the fault
// injector a deterministic place to simulate the failures those checks
// exist for: short writes, EIO on write or fsync, a torn rename that
// commits a prefix, and seeded byte flips (silent media corruption).
//
// The btlint `unchecked-io` rule bans raw fwrite/fclose/rename/fsync
// outside this directory, which keeps the shim load-bearing.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace benchtemp::io {

/// What kind of durability artifact a file operation serves. Fault sites
/// are scoped by kind so BENCHTEMP_FAULTS can corrupt a checkpoint without
/// also corrupting the sweep manifest (and vice versa).
enum class FileKind {
  kGeneric,     // no fault scoping; plain checked I/O
  kCheckpoint,  // job-checkpoint generations (torn/bitflip sites apply)
  kManifest,    // append-only journals (eio_manifest applies)
};

/// Checked wrapper over one C stdio stream. Any failed operation latches
/// `ok() == false`; subsequent writes are no-ops so callers can check once
/// at Close(). The destructor closes silently (result discarded) — call
/// Close() on every path that must observe failure.
class File {
 public:
  File() = default;
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Opens for writing (truncate). Returns false on open failure.
  bool OpenWrite(const std::string& path, FileKind kind = FileKind::kGeneric);
  /// Opens for appending.
  bool OpenAppend(const std::string& path, FileKind kind = FileKind::kGeneric);

  /// Writes all of `data` (checked, short writes latch failure). Probes the
  /// write-failure fault sites of this file's kind.
  bool Write(const void* data, size_t size);
  bool Write(const std::string& data) { return Write(data.data(), data.size()); }

  /// fflush + fsync: the bytes are on the platter (or the fault injector
  /// pretended the disk said EIO). Returns false on failure.
  bool Sync();

  /// Flushes and closes, returning false if any operation on this file —
  /// including the close itself — failed.
  bool Close();

  bool is_open() const { return stream_ != nullptr; }
  bool ok() const { return ok_; }

 private:
  std::FILE* stream_ = nullptr;
  FileKind kind_ = FileKind::kGeneric;
  bool ok_ = true;
};

/// Atomically replaces `path` with `payload`: write `path + ".tmp"`, fsync
/// it, rename over `path`, fsync the parent directory. A crash (or injected
/// fault) at any instant leaves either the complete old file or the
/// complete new file. Returns false on failure with the previous file
/// untouched — except for the torn/bitflip checkpoint fault sites, which
/// deliberately commit corrupted bytes *and report success*, modeling
/// silent media corruption that only a checksum can catch.
bool AtomicReplace(const std::string& path, const std::string& payload,
                   FileKind kind = FileKind::kGeneric);

/// Reads a whole file into `payload`. Returns false when it cannot be
/// opened or read.
bool ReadFileBytes(const std::string& path, std::string* payload);

/// Deletes `path` (checked std::remove; missing file counts as success).
bool RemoveFile(const std::string& path);

/// Transient I/O failures (EIO from a flaky disk, an injected eio_manifest
/// fault) should not abort a multi-day sweep, but unbounded or randomized
/// retries would break both determinism and CI budgets. Durable writes
/// therefore retry on one fixed schedule: kRetryAttempts tries, sleeping
/// RetryBackoffMs between them. There is no jitter: every writer owns its
/// files (each lineage its own, the sweep journal under its mutex), so
/// there is no contention for jitter to spread.
inline constexpr int kRetryAttempts = 3;

/// Sleep after failed attempt `attempt` (1-based): 1 ms doubling per
/// retry, capped at 50 ms; 0 for attempt < 1.
int64_t RetryBackoffMs(int attempt);

/// Runs `op` until it succeeds, at most kRetryAttempts times. Each
/// re-attempt increments the obs counter `io.retries`.
bool RunWithRetry(const std::function<bool()>& op);

}  // namespace benchtemp::io

#endif  // BENCHTEMP_IO_FILE_H_
