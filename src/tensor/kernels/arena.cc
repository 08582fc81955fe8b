#include "tensor/kernels/arena.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "tensor/debug_check.h"

namespace benchtemp::tensor::kernels {

namespace {

/// Default block size: 1M floats (4 MiB) holds every tape we record at
/// bench batch sizes; oversized requests get a dedicated block.
constexpr int64_t kBlockFloats = int64_t{1} << 20;

/// Alignment of every span, in floats (64 bytes = one cache line, enough
/// for any current vector ISA).
constexpr int64_t kAlignFloats = 16;

// btlint: allow(mutable-static) — atomic test hook, relaxed loads only.
std::atomic<bool> g_arena_enabled{true};

int64_t AlignUp(int64_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

void Poison(float* begin, int64_t n) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t i = 0; i < n; ++i) begin[i] = nan;
}

}  // namespace

bool ArenaEnabled() {
  return g_arena_enabled.load(std::memory_order_relaxed);
}

void SetArenaEnabledForTest(bool enabled) {
  g_arena_enabled.store(enabled, std::memory_order_relaxed);
}

Arena& Arena::ThreadLocal() {
  static thread_local Arena arena;
  return arena;
}

Arena::~Arena() = default;

float* Arena::Alloc(int64_t n) {
  if (scope_depth_ == 0 || !ArenaEnabled()) return nullptr;
  const int64_t want = AlignUp(n > 0 ? n : 1);
  while (block_ < blocks_.size() &&
         offset_ + want > blocks_[block_].capacity) {
    // The current block is full; move to the next one (its previous
    // contents are from rewound scopes) or fall through to grow.
    if (block_ + 1 < blocks_.size()) {
      ++block_;
      offset_ = 0;
    } else {
      break;
    }
  }
  if (block_ >= blocks_.size() ||
      offset_ + want > blocks_[block_].capacity) {
    const int64_t capacity = want > kBlockFloats ? want : kBlockFloats;
    Block fresh;
    // Left uninitialised: NewTensor zero-fills every span it hands out, so
    // a block's pages become resident only as far as tapes reach into it,
    // and peak RSS follows the bytes used rather than whole blocks.
    fresh.data =
        std::make_unique_for_overwrite<float[]>(static_cast<size_t>(capacity));
    fresh.capacity = capacity;
    blocks_.push_back(std::move(fresh));
    block_ = blocks_.size() - 1;
    offset_ = 0;
  }
  float* span = blocks_[block_].data.get() + offset_;
  offset_ += want;
  live_floats_ += want;
  if (obs::MetricRegistry::Enabled()) {
    obs::MetricRegistry::Global().Add(obs::Counter::kArenaBytes,
                                      want * static_cast<int64_t>(sizeof(float)));
  }
  return span;
}

void Arena::Rewind(const Mark& mark) {
  if (debug_check::Enabled()) {
    // Poison the span being freed so any Tensor that outlived its scope
    // reads loud NaNs instead of silently recycled data.
    for (size_t b = mark.block; b < blocks_.size() && b <= block_; ++b) {
      const int64_t from = b == mark.block ? mark.offset : 0;
      const int64_t to = b == block_ ? offset_ : blocks_[b].capacity;
      if (to > from) Poison(blocks_[b].data.get() + from, to - from);
    }
  }
  block_ = mark.block;
  offset_ = mark.offset;
  live_floats_ = mark.live;
  if (obs::MetricRegistry::Enabled()) {
    obs::MetricRegistry::Global().Add(obs::Counter::kArenaResets, 1);
  }
}

TapeScope::TapeScope() {
  Arena& arena = Arena::ThreadLocal();
  mark_ = arena.Here();
  arena.EnterScope();
}

TapeScope::~TapeScope() {
  Arena& arena = Arena::ThreadLocal();
  arena.ExitScope();
  arena.Rewind(mark_);
}

Tensor NewTensor(std::vector<int64_t> shape) {
  int64_t volume = 1;
  for (int64_t d : shape) {
    CheckOrDie(d >= 0, "NewTensor: negative tensor dimension");
    volume *= d;
  }
  float* span = Arena::ThreadLocal().Alloc(volume);
  if (span == nullptr) return Tensor(std::move(shape));
  // Zero-fill: arena memory is recycled across batches, and grads as well
  // as sparse-writing ops rely on zero-initialized output.
  std::memset(span, 0, static_cast<size_t>(volume) * sizeof(float));
  return ArenaAccess::Adopt(std::move(shape), span, volume);
}

}  // namespace benchtemp::tensor::kernels
