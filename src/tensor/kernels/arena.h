#ifndef BENCHTEMP_TENSOR_KERNELS_ARENA_H_
#define BENCHTEMP_TENSOR_KERNELS_ARENA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace benchtemp::tensor::kernels {

// Tape-scoped bump allocator for autograd storage (see DESIGN.md "Kernel
// layer & tensor arena").
//
// Every training/eval batch records a fresh tape whose node values and
// interior gradients die together when the batch ends. Instead of paying a
// heap round-trip per node, the trainer opens a `TapeScope` at the top of
// each per-batch block; `NewTensor` then bump-allocates from a thread-local
// arena and the scope's destructor rewinds the bump pointer, recycling the
// whole batch in O(1).
//
// Lifetime rules (enforced by convention + the BENCHTEMP_CHECK poison):
//   - Only per-batch storage is arena-allocated: op outputs recorded by
//     MakeNode and interior (non-leaf) grad buffers. Parameters, their
//     grads (created with them; Adam trajectory state) and anything
//     reachable after the batch stay on the heap.
//   - Tensor copies always deep-copy to the heap, so `Constant` copies of
//     op values, memory-table writes, best-epoch snapshots and checkpoints
//     never alias the arena.
//   - The arena is thread-local: a scope opened on one thread hands spans
//     only to allocations made on that thread (ops allocate outputs on the
//     calling thread before fanning out via ParallelFor, and
//     ForEachModelParallel runs each training job wholly on one worker).
//   - Scopes nest; each rewinds to its own entry mark.
//   - Under BENCHTEMP_CHECK=1 the rewound region is poisoned with quiet
//     NaNs, so any read through a stale arena tensor surfaces loudly —
//     the dynamic counterpart of the tape validator's released-grad poison.
//
// SetArenaEnabledForTest(false) makes every NewTensor fall back to heap
// storage — the leg of the digest matrix through which AddressSanitizer
// sees tape-lifetime bugs the arena would otherwise mask. Results are
// bit-identical either way, asserted by the kernel digest-matrix tests.

class Arena {
 public:
  /// The calling thread's arena.
  static Arena& ThreadLocal();

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  /// Bump-allocates `n` floats (64-byte aligned, zero-filled by the caller
  /// if needed). Returns nullptr when no TapeScope is active on this thread
  /// or the arena is disabled — callers must fall back to heap storage.
  float* Alloc(int64_t n);

  /// Total floats handed out since the last rewind to empty (test hook).
  int64_t LiveFloats() const { return live_floats_; }

  /// Tape generation of this thread: bumped at every TapeScope entry and
  /// exit, so two reads that return the same value bracket no tape
  /// boundary. A cache of tape values keyed by it can never hand out a
  /// value whose tape has rewound.
  uint64_t Generation() const { return generation_; }

 private:
  friend class TapeScope;

  struct Block {
    std::unique_ptr<float[]> data;
    int64_t capacity = 0;
  };

  struct Mark {
    size_t block = 0;
    int64_t offset = 0;
    int64_t live = 0;
  };

  Mark Here() const { return {block_, offset_, live_floats_}; }
  void Rewind(const Mark& mark);
  void EnterScope() {
    ++scope_depth_;
    ++generation_;
  }
  void ExitScope() {
    --scope_depth_;
    ++generation_;
  }

  std::vector<Block> blocks_;
  size_t block_ = 0;      // index of the block the bump pointer lives in
  int64_t offset_ = 0;    // floats used within blocks_[block_]
  int64_t live_floats_ = 0;
  int scope_depth_ = 0;
  uint64_t generation_ = 0;
};

/// RAII batch scope: captures the thread-local arena's bump mark on entry
/// and rewinds to it on exit (poisoning the freed span under
/// BENCHTEMP_CHECK). Open one per tape — i.e. per training batch, eval
/// batch, or replay step.
class TapeScope {
 public:
  TapeScope();
  ~TapeScope();
  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  Arena::Mark mark_;
};

/// True unless a test turned the arena off.
bool ArenaEnabled();

/// Test hook: false sends every NewTensor to the heap; true restores the
/// default.
void SetArenaEnabledForTest(bool enabled);

/// A zero-filled tensor of `shape`, arena-backed when the calling thread
/// has an open TapeScope and the arena is enabled, heap-backed otherwise.
/// The autograd layer allocates every op output and interior grad through
/// this.
Tensor NewTensor(std::vector<int64_t> shape);

/// Grants the arena access to Tensor's private adopt-a-span constructor.
class ArenaAccess {
 public:
  static Tensor Adopt(std::vector<int64_t> shape, float* span, int64_t size) {
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = span;
    t.size_ = size;
    return t;
  }
};

}  // namespace benchtemp::tensor::kernels

#endif  // BENCHTEMP_TENSOR_KERNELS_ARENA_H_
