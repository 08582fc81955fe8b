#include "pipeline/pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "base/check.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace benchtemp::pipeline {

using obs::NowSeconds;

int DepthFromEnv() {
  return std::clamp(base::EnvIntOrDie("BENCHTEMP_PIPELINE", 2), 0, 8);
}

BatchPrefetcher::BatchPrefetcher(int64_t num_batches, int depth,
                                 PrepareFn prepare,
                                 const double* deadline)
    : num_batches_(num_batches),
      depth_(std::max(depth, 0)),
      prepare_(std::move(prepare)),
      deadline_(deadline != nullptr ? *deadline : 0.0) {
  base::CheckOrDie(prepare_ != nullptr, "BatchPrefetcher: null prepare fn");
  async_ = depth_ > 0 && num_batches_ > 0 &&
           runtime::ThreadPool::Global().has_workers() &&
           !runtime::ThreadPool::Global().InWorker();
  if (!async_) return;
  window_ = std::min<int64_t>(depth_, num_batches_);
  {
    base::MutexLock lock(mutex_);
    slots_.resize(static_cast<size_t>(window_));
  }
  for (int64_t i = 0; i < window_; ++i) Schedule(i);
}

BatchPrefetcher::~BatchPrefetcher() {
  if (!async_) return;
  // Drain: producers always transition kPending -> kReady (even past the
  // deadline), so waiting them out is bounded. Their results are
  // simply discarded with the prefetcher — never checkpointed.
  base::MutexLock lock(mutex_);
  for (;;) {
    bool pending = false;
    for (const Slot& s : slots_) {
      if (s.state == SlotState::kPending) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    ready_cv_.Wait(mutex_);
  }
}

void BatchPrefetcher::Schedule(int64_t index) {
  {
    base::MutexLock lock(mutex_);
    Slot& slot = slots_[static_cast<size_t>(index % window_)];
    slot.state = SlotState::kPending;
    slot.error = nullptr;
  }
  runtime::ThreadPool::Global().Post([this, index] { Produce(index); });
}

void BatchPrefetcher::Produce(int64_t index) {
  PreparedBatch batch;
  std::exception_ptr error;
  double elapsed = 0.0;
  // Skip the (possibly expensive) prepare once the deadline passed; the
  // consumer only checks the deadline, never the payload, after that.
  if (!canceled()) {
    const double start = NowSeconds();
    try {
      batch = prepare_(index);
    } catch (...) {
      error = std::current_exception();
    }
    elapsed = NowSeconds() - start;
  }
  {
    base::MutexLock lock(mutex_);
    Slot& slot = slots_[static_cast<size_t>(index % window_)];
    slot.batch = std::move(batch);
    slot.error = error;
    slot.state = SlotState::kReady;
    stats_.prepare_seconds += elapsed;
    // Notify under the lock: the destructor destroys this cv as soon as it
    // observes no kPending slot, so the publish and the notify must be one
    // atomic step from its point of view.
    ready_cv_.NotifyAll();
  }
}

bool BatchPrefetcher::Next(PreparedBatch* out) {
  if (next_index_ >= num_batches_) return false;
  const int64_t index = next_index_;
  if (!async_) {
    if (canceled()) return false;
    const double start = NowSeconds();
    *out = prepare_(index);
    const double elapsed = NowSeconds() - start;
    // Synchronous mode: the consumer pays the whole prepare, so the same
    // time lands on both sides of the overlap ratio (ratio 0). No producer
    // exists, but stats() may be polled from another thread, so the
    // accounting still updates under the lock.
    base::MutexLock lock(mutex_);
    stats_.prepare_seconds += elapsed;
    stats_.wait_seconds += elapsed;
    ++stats_.batches;
    ++next_index_;
    return true;
  }
  std::exception_ptr error;
  bool was_ready = false;
  {
    base::MutexLock lock(mutex_);
    Slot& slot = slots_[static_cast<size_t>(index % window_)];
    was_ready = slot.state == SlotState::kReady;
    if (!was_ready) {
      const double start = NowSeconds();
      while (slot.state != SlotState::kReady) {
        if (canceled()) return false;
        // Bounded waits keep the consumer checking the deadline, so a
        // stalled producer cannot keep the job alive past it.
        ready_cv_.WaitForMs(mutex_, 10);
      }
      stats_.wait_seconds += NowSeconds() - start;
    }
    error = slot.error;
    *out = std::move(slot.batch);
    slot.state = SlotState::kEmpty;
    slot.error = nullptr;
    ++stats_.batches;
    if (was_ready) ++stats_.prefetched;
  }
  ++next_index_;
  // Consumer-driven backpressure: freeing slot (index % depth) admits
  // exactly one more batch into the window.
  const int64_t upcoming = index + window_;
  if (upcoming < num_batches_ && !canceled()) Schedule(upcoming);
  if (error) std::rethrow_exception(error);
  // A producer that saw the deadline pass skips the prepare and publishes
  // an empty payload (index -1); report cancellation instead of handing
  // the trainer a hollow batch.
  if (out->index != index) return false;
  return true;
}

PipelineStats BatchPrefetcher::stats() const {
  base::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace benchtemp::pipeline
