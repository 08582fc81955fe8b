#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <sstream>

namespace benchtemp::tensor {

namespace {

constexpr char kMagic[4] = {'B', 'T', 'C', 'P'};

void WriteU64(std::ostream& out, uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

bool ReadU64(std::istream& in, uint64_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

}  // namespace

std::string SnapshotParameters(const std::vector<Var>& params) {
  std::ostringstream out(std::ios::binary);
  out.write(kMagic, sizeof(kMagic));
  WriteU64(out, params.size());
  for (const Var& p : params) {
    const Tensor& t = p->value;
    WriteU64(out, static_cast<uint64_t>(t.rank()));
    for (int64_t d : t.shape()) WriteU64(out, static_cast<uint64_t>(d));
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(float)));
  }
  return out.str();
}

bool RestoreParameters(const std::string& blob,
                       const std::vector<Var>& params) {
  std::istringstream in(blob, std::ios::binary);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
  uint64_t count = 0;
  if (!ReadU64(in, &count) || count != params.size()) return false;
  // Two-phase: validate shapes and stage payloads before touching any
  // parameter so a corrupt blob cannot leave a half-restored model.
  std::vector<std::vector<float>> staged(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params[i]->value;
    uint64_t rank = 0;
    if (!ReadU64(in, &rank) || rank != static_cast<uint64_t>(t.rank())) {
      return false;
    }
    for (int64_t d : t.shape()) {
      uint64_t dim = 0;
      if (!ReadU64(in, &dim) || dim != static_cast<uint64_t>(d)) {
        return false;
      }
    }
    staged[i].resize(static_cast<size_t>(t.size()));
    in.read(reinterpret_cast<char*>(staged[i].data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
    if (!in) return false;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& t = params[i]->value;
    for (int64_t j = 0; j < t.size(); ++j) {
      t.at(j) = staged[i][static_cast<size_t>(j)];
    }
  }
  return true;
}

}  // namespace benchtemp::tensor
