#ifndef BENCHTEMP_PIPELINE_PIPELINE_H_
#define BENCHTEMP_PIPELINE_PIPELINE_H_

// Deterministic producer/consumer training pipeline (see DESIGN.md
// "Pipelined training").
//
// A BatchPrefetcher runs a user-supplied prepare function — negative
// sampling, walk trees, neighbor gathers — for upcoming batches on the
// shared runtime::ThreadPool while the training thread works on the
// current batch. Because every prepare call is a pure function of its
// batch index (all sampler RNG is keyed off per-batch SplitMix64 seeds),
// the prefetched inputs are bit-identical to what synchronous preparation
// would produce; depth only changes *when* the work runs, never *what* it
// computes. BENCHTEMP_PIPELINE selects the depth (0 = synchronous).

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "models/model.h"
#include "obs/metrics.h"

namespace benchtemp::pipeline {

/// One prepared batch: the keyed negative destinations, the (optional)
/// row-major [batch * k] ranking candidate sets of an MRR evaluation pass,
/// plus the model-specific precomputed inputs (may be null for models with
/// no sampling stage to hoist).
struct PreparedBatch {
  int64_t index = -1;
  std::vector<int32_t> negatives;
  std::vector<int32_t> candidates;
  std::unique_ptr<models::PreparedInputs> inputs;
};

/// Pure batch-preparation function: index -> PreparedBatch. Must not depend
/// on call order or the calling thread (the determinism contract).
using PrepareFn = std::function<PreparedBatch(int64_t)>;

/// Accumulated pipeline accounting for one prefetcher's lifetime.
struct PipelineStats {
  /// Batches delivered to the consumer.
  int64_t batches = 0;
  /// Delivered batches whose slot was already filled when requested (the
  /// prefetch fully hid their preparation).
  int64_t prefetched = 0;
  /// Total wall-time spent inside the prepare function (any thread).
  double prepare_seconds = 0.0;
  /// Consumer wall-time blocked in Next() waiting for a slot (synchronous
  /// mode charges the full inline prepare here).
  double wait_seconds = 0.0;

  /// Adds another prefetcher's accounting (one per training epoch).
  PipelineStats& operator+=(const PipelineStats& other) {
    batches += other.batches;
    prefetched += other.prefetched;
    prepare_seconds += other.prepare_seconds;
    wait_seconds += other.wait_seconds;
    return *this;
  }

  /// Fraction of preparation time hidden from the consumer:
  /// 1 - wait/prepare, clamped to [0, 1]. Synchronous mode reports 0.
  double overlap_ratio() const {
    if (prepare_seconds <= 0.0) return wait_seconds > 0.0 ? 0.0 : 1.0;
    const double r = 1.0 - wait_seconds / prepare_seconds;
    return r < 0.0 ? 0.0 : (r > 1.0 ? 1.0 : r);
  }
};

/// Double-buffered bounded-queue prefetcher over batches [0, num_batches).
///
/// Scheduling is consumer-driven: construction posts the first
/// min(depth, num_batches) prepare tasks to the thread pool; delivering
/// batch i posts batch i + depth. At most `depth` batches are therefore
/// in flight or buffered beyond the consumer's position — the bounded
/// queue's backpressure without a producer that ever blocks.
///
/// Falls back to synchronous inline preparation when depth <= 0 or the
/// pool has no workers (BENCHTEMP_NUM_THREADS=1), keeping results
/// identical by construction.
///
/// Failure model: a prepare call that throws surfaces its exception from
/// the Next() that would have delivered the batch. Next() checks the job
/// deadline while waiting, so a stalled producer cannot keep a job alive
/// past it; the destructor drains in-flight tasks so no producer outlives
/// the epoch that scheduled it (prefetched batches are discarded — never
/// checkpointed — on rollback or retry).
class BatchPrefetcher {
 public:
  /// `deadline` (may be null) points at the job's absolute deadline on the
  /// obs::NowSeconds() clock; null or 0 means none.
  BatchPrefetcher(int64_t num_batches, int depth, PrepareFn prepare,
                  const double* deadline);
  ~BatchPrefetcher();

  BatchPrefetcher(const BatchPrefetcher&) = delete;
  BatchPrefetcher& operator=(const BatchPrefetcher&) = delete;

  /// Delivers the next batch in index order. Returns false when the range
  /// is exhausted or the deadline passed; rethrows an exception thrown by
  /// the batch's prepare call.
  bool Next(PreparedBatch* out);

  /// True when batches are prepared ahead on pool workers.
  bool async() const { return async_; }
  int depth() const { return depth_; }

  /// Snapshot of the accounting so far.
  PipelineStats stats() const;

 private:
  enum class SlotState { kEmpty, kPending, kReady };

  struct Slot {
    SlotState state = SlotState::kEmpty;
    PreparedBatch batch;
    std::exception_ptr error;
  };

  bool canceled() const { return obs::DeadlinePassed(deadline_); }
  void Schedule(int64_t index);
  void Produce(int64_t index);

  const int64_t num_batches_;
  const int depth_;
  const PrepareFn prepare_;
  const double deadline_;
  bool async_ = false;
  /// Consumer-thread cursor; Next() is single-consumer by contract, so this
  /// never races and is not guarded.
  int64_t next_index_ = 0;
  /// Slot-ring size; fixed in the constructor before any producer exists.
  int64_t window_ = 0;

  mutable base::Mutex mutex_;
  base::CondVar ready_cv_;
  std::vector<Slot> slots_ GUARDED_BY(mutex_);
  PipelineStats stats_ GUARDED_BY(mutex_);
};

/// Pipeline depth from BENCHTEMP_PIPELINE: unset/empty -> 2 (the default
/// double-buffer), k <= 0 -> 0 (synchronous), k -> min(k, 8). A value that
/// is not an integer is fatal.
int DepthFromEnv();

}  // namespace benchtemp::pipeline

#endif  // BENCHTEMP_PIPELINE_PIPELINE_H_
