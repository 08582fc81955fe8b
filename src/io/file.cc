#include "io/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/fault_injector.h"
#include "obs/metrics.h"

namespace benchtemp::io {

namespace {

using base::FaultInjector;
using base::FaultSite;

/// fsyncs a directory so a just-renamed dirent survives power loss. A
/// rename alone orders the data, not the directory entry; POSIX requires
/// an explicit fsync of the parent. Returns false on open/fsync failure.
bool FsyncDir(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = fsync(fd) == 0;
  close(fd);
  return ok;
}

/// Parent directory of `path` ("." when the path has no separator).
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

File::~File() {
  if (stream_ != nullptr) {
    // Destructor path: the caller abandoned the file (error unwind), so
    // the close result is deliberately discarded.
    (void)std::fclose(stream_);
    stream_ = nullptr;
  }
}

bool File::OpenWrite(const std::string& path, FileKind kind) {
  if (stream_ != nullptr) return false;
  stream_ = std::fopen(path.c_str(), "wb");
  kind_ = kind;
  ok_ = stream_ != nullptr;
  return ok_;
}

bool File::OpenAppend(const std::string& path, FileKind kind) {
  if (stream_ != nullptr) return false;
  stream_ = std::fopen(path.c_str(), "ab");
  kind_ = kind;
  ok_ = stream_ != nullptr;
  return ok_;
}

bool File::Write(const void* data, size_t size) {
  if (stream_ == nullptr || !ok_) return false;
  auto& injector = FaultInjector::Global();
  if (kind_ == FileKind::kManifest &&
      injector.Fire(FaultSite::kEioManifest)) {
    ok_ = false;
    return false;
  }
  if (injector.Fire(FaultSite::kEioWrite)) {
    ok_ = false;
    return false;
  }
  // A short write commits a prefix — the checked size comparison below is
  // exactly the code path real interrupted writes exercise.
  size_t attempt = size;
  if (injector.Fire(FaultSite::kShortWrite)) attempt = size / 2;
  const size_t written = std::fwrite(data, 1, attempt, stream_);
  if (written != size) {
    ok_ = false;
    return false;
  }
  return true;
}

bool File::Sync() {
  if (stream_ == nullptr || !ok_) return false;
  if (FaultInjector::Global().Fire(FaultSite::kEioFsync)) {
    ok_ = false;
    return false;
  }
  if (std::fflush(stream_) != 0) {
    ok_ = false;
    return false;
  }
  if (fsync(fileno(stream_)) != 0) {
    ok_ = false;
    return false;
  }
  return true;
}

bool File::Close() {
  if (stream_ == nullptr) return false;
  if (std::fflush(stream_) != 0) ok_ = false;
  if (std::fclose(stream_) != 0) ok_ = false;
  stream_ = nullptr;
  return ok_;
}

bool AtomicReplace(const std::string& path, const std::string& payload,
                   FileKind kind) {
  std::string bytes = payload;
  if (kind == FileKind::kCheckpoint && !bytes.empty()) {
    // Silent-corruption sites: the payload is damaged *before* the atomic
    // protocol runs, so the commit itself succeeds and the caller believes
    // the checkpoint is durable — exactly the failure mode checksums and
    // generation fallback exist for.
    auto& injector = FaultInjector::Global();
    uint64_t stream = 0;
    if (injector.Fire(FaultSite::kTornCheckpoint, &stream)) {
      bytes.resize(static_cast<size_t>(stream % bytes.size()));
    }
    if (!bytes.empty() &&
        injector.Fire(FaultSite::kBitflipCheckpoint, &stream)) {
      const size_t offset = static_cast<size_t>(stream % bytes.size());
      bytes[offset] = static_cast<char>(
          bytes[offset] ^ static_cast<char>(1u << ((stream >> 8) % 8)));
    }
  }
  const std::string tmp = path + ".tmp";
  File out;
  if (!out.OpenWrite(tmp, kind)) return false;
  if (!out.Write(bytes) || !out.Sync() || !out.Close()) {
    (void)RemoveFile(tmp);
    return false;
  }
  // The crash window the atomic protocol defends: temp file durable, final
  // name not yet swung. An injected fault here must leave `path` intact.
  if (FaultInjector::Global().Fire(FaultSite::kCheckpointRename)) {
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)RemoveFile(tmp);
    return false;
  }
  // rename() orders the data but not the dirent; without this fsync a
  // power cut can resurrect the old file (or no file) after the caller was
  // told the new one is durable.
  return FsyncDir(ParentDir(path));
}

bool ReadFileBytes(const std::string& path, std::string* payload) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  *payload = buffer.str();
  return true;
}

bool RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) == 0) return true;
  return errno == ENOENT;
}

int64_t RetryBackoffMs(int attempt) {
  constexpr int64_t kMaxBackoffMs = 50;
  if (attempt < 1) return 0;
  if (attempt > 7) return kMaxBackoffMs;  // 2^6 already exceeds the cap
  return std::min(int64_t{1} << (attempt - 1), kMaxBackoffMs);
}

bool RunWithRetry(const std::function<bool()>& op) {
  for (int attempt = 1; attempt <= kRetryAttempts; ++attempt) {
    if (op()) return true;
    if (attempt == kRetryAttempts) break;
    obs::MetricRegistry::Global().Add(obs::Counter::kIoRetries, 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(RetryBackoffMs(attempt)));
  }
  return false;
}

}  // namespace benchtemp::io
