#include "robustness/checkpoint.h"

#include <cstring>
#include <sstream>

namespace benchtemp::robustness {

namespace {

constexpr char kMagic[4] = {'B', 'T', 'J', 'C'};
constexpr uint32_t kVersion = 2;  // v2: + retried_epoch_seconds

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

void WriteBlob(std::ostream& out, const std::string& blob) {
  WritePod(out, static_cast<uint64_t>(blob.size()));
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

bool ReadBlob(std::istream& in, std::string* blob) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  blob->resize(size);
  in.read(blob->data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

}  // namespace

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string SerializeJobCheckpoint(const JobCheckpoint& ckpt) {
  std::ostringstream body(std::ios::binary);
  body.write(kMagic, sizeof(kMagic));
  WritePod(body, kVersion);
  WritePod(body, ckpt.next_epoch);
  WritePod(body, ckpt.epochs_run);
  WritePod(body, ckpt.nan_retries);
  WritePod(body, ckpt.learning_rate);
  WritePod(body, ckpt.total_epoch_seconds);
  WritePod(body, ckpt.retried_epoch_seconds);
  WritePod(body, ckpt.seed);
  WritePod(body, ckpt.monitor.best_metric);
  WritePod(body, ckpt.monitor.best_epoch);
  WritePod(body, ckpt.monitor.epoch);
  WritePod(body, ckpt.monitor.rounds);
  WritePod(body, ckpt.val_auc);
  WritePod(body, ckpt.val_ap);
  WritePod(body, ckpt.val_count);
  WriteBlob(body, ckpt.model_rng);
  WriteBlob(body, ckpt.sampler_rng);
  WriteBlob(body, ckpt.params);
  WriteBlob(body, ckpt.adam);
  WriteBlob(body, ckpt.best_params);
  std::string payload = body.str();
  const uint64_t checksum = Fnv1a64(payload);
  payload.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return payload;
}

bool ParseJobCheckpoint(const std::string& container, JobCheckpoint* out) {
  if (container.size() < sizeof(uint64_t)) return false;
  uint64_t stored = 0;
  std::memcpy(&stored, container.data() + container.size() - sizeof(stored),
              sizeof(stored));
  std::string payload = container.substr(0, container.size() - sizeof(stored));
  if (Fnv1a64(payload) != stored) return false;

  std::istringstream in(payload, std::ios::binary);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version != kVersion) return false;
  JobCheckpoint ckpt;
  if (!ReadPod(in, &ckpt.next_epoch)) return false;
  if (!ReadPod(in, &ckpt.epochs_run)) return false;
  if (!ReadPod(in, &ckpt.nan_retries)) return false;
  if (!ReadPod(in, &ckpt.learning_rate)) return false;
  if (!ReadPod(in, &ckpt.total_epoch_seconds)) return false;
  if (!ReadPod(in, &ckpt.retried_epoch_seconds)) return false;
  if (!ReadPod(in, &ckpt.seed)) return false;
  if (!ReadPod(in, &ckpt.monitor.best_metric)) return false;
  if (!ReadPod(in, &ckpt.monitor.best_epoch)) return false;
  if (!ReadPod(in, &ckpt.monitor.epoch)) return false;
  if (!ReadPod(in, &ckpt.monitor.rounds)) return false;
  if (!ReadPod(in, &ckpt.val_auc)) return false;
  if (!ReadPod(in, &ckpt.val_ap)) return false;
  if (!ReadPod(in, &ckpt.val_count)) return false;
  if (!ReadBlob(in, &ckpt.model_rng)) return false;
  if (!ReadBlob(in, &ckpt.sampler_rng)) return false;
  if (!ReadBlob(in, &ckpt.params)) return false;
  if (!ReadBlob(in, &ckpt.adam)) return false;
  if (!ReadBlob(in, &ckpt.best_params)) return false;
  *out = std::move(ckpt);
  return true;
}

}  // namespace benchtemp::robustness
