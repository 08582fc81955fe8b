#ifndef BENCHTEMP_TENSOR_DISTINCT_H_
#define BENCHTEMP_TENSOR_DISTINCT_H_

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "tensor/numeric.h"

namespace benchtemp::tensor {

/// The distinct values of some keys in first-occurrence order, and each
/// key's slot among them: keys[i] is values[slot[i]].
template <typename T>
struct Distinct {
  std::vector<T> values;
  std::vector<int32_t> slot;
};

/// A key's bit pattern as 64-bit words, or as 32-bit words when its size
/// is not a multiple of 8.
template <typename T>
using KeyBits =
    std::conditional_t<sizeof(T) % 8 == 0,
                       std::array<uint64_t, sizeof(T) / 8>,
                       std::array<uint32_t, sizeof(T) / 4>>;

/// The one first-occurrence index: keys are equal when their bit patterns
/// are, so 0.0f and -0.0f are two keys and so are two NaN payloads. Any
/// trivially copyable key without padding bytes works: ids, float deltas,
/// TGAT's {node, time} queries. Open addressing over the slots, the words
/// folded by Fibonacci hashing into a table that doubles whenever it is a
/// quarter full: it stays a small multiple of the distinct set rather than
/// the size of the input, and its linear probe runs stay short.
template <typename T>
Distinct<T> Dedup(const std::vector<T>& keys) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 4 == 0);
  using Bits = KeyBits<T>;
  const auto hash = [](const Bits& bits) {
    uint64_t h = 0;
    for (const uint64_t word : bits) {
      h = (std::rotl(h, 29) ^ word) * 0x9E3779B97F4A7C15ull;
    }
    return h;
  };
  Distinct<T> out;
  out.slot.reserve(keys.size());
  int log2_size = 6;
  std::vector<int32_t> table(size_t{1} << log2_size, -1);
  const auto find = [&](const Bits& bits) -> int32_t& {
    const size_t mask = table.size() - 1;
    size_t s = static_cast<size_t>(hash(bits) >> (64 - log2_size));
    while (table[s] >= 0 &&
           std::bit_cast<Bits>(out.values[static_cast<size_t>(table[s])]) !=
               bits) {
      s = (s + 1) & mask;
    }
    return table[s];
  };
  for (const T& key : keys) {
    int32_t& u = find(std::bit_cast<Bits>(key));
    if (u < 0) {
      u = NarrowId(static_cast<int64_t>(out.values.size()), "Dedup: keys");
      out.values.push_back(key);
    }
    out.slot.push_back(u);
    if (4 * out.values.size() > table.size()) {
      table.assign(size_t{1} << ++log2_size, -1);
      for (size_t d = 0; d < out.values.size(); ++d) {
        find(std::bit_cast<Bits>(out.values[d])) = static_cast<int32_t>(d);
      }
    }
  }
  return out;
}

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_DISTINCT_H_
