#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "base/check.h"
#include "obs/metrics.h"

namespace benchtemp::runtime {

namespace {

/// Set for the lifetime of a worker thread; lets nested ParallelFor calls
/// detect they are already running on pool capacity.
thread_local const ThreadPool* g_worker_pool = nullptr;

}  // namespace

int DefaultNumThreads() {
  const int requested = base::EnvIntOrDie("BENCHTEMP_NUM_THREADS", 0);
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  // Intentionally leaked immortal singleton: worker threads may still be
  // parked in the pool when static destructors run, so never destroy it.
  // btlint: allow(mutable-static, raw-new)
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

ThreadPool::ThreadPool(int num_threads) {
  StartWorkers(std::max(num_threads, 1) - 1);
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::StartWorkers(int count) {
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::StopWorkers() {
  {
    base::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // Workers honor shutdown before draining the async queue, so tasks may
  // remain; run them inline to keep the exactly-once guarantee of Post().
  // The swap happens under the lock even though workers are joined — the
  // guard is cheap and keeps the annotation contract unconditional.
  std::deque<std::function<void()>> leftover;
  {
    base::MutexLock lock(mutex_);
    shutdown_ = false;
    leftover.swap(tasks_);
  }
  for (std::function<void()>& task : leftover) task();
}

void ThreadPool::Post(std::function<void()> task) {
  if (workers_.empty()) {
    // No asynchrony available; degrade to immediate inline execution.
    task();
    return;
  }
  {
    base::MutexLock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::SetNumThreads(int num_threads) {
  {
    base::MutexLock lock(mutex_);
    base::CheckOrDie(job_ == nullptr,
                     "ThreadPool::SetNumThreads: pool is busy");
  }
  StopWorkers();
  StartWorkers(std::max(num_threads, 1) - 1);
}

bool ThreadPool::InWorker() const { return g_worker_pool == this; }

void ThreadPool::RunChunks(Job& job) {
  for (;;) {
    const int64_t chunk = job.next_chunk.fetch_add(1);
    if (chunk >= job.num_chunks) return;
    try {
      (*job.fn)(chunk);
    } catch (...) {
      {
        base::MutexLock lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      // Cancel the chunks nobody claimed yet; the caller rethrows.
      job.next_chunk.store(job.num_chunks);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  g_worker_pool = this;
  uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    std::function<void()> task;
    {
      base::MutexLock lock(mutex_);
      while (!(shutdown_ || !tasks_.empty() ||
               (job_ != nullptr && generation_ != seen_generation))) {
        work_cv_.Wait(mutex_);
      }
      if (shutdown_) return;
      if (job_ != nullptr && generation_ != seen_generation) {
        // Blocking Run() callers take priority over background tasks so
        // ParallelFor latency stays flat while prefetch tasks are queued.
        seen_generation = generation_;
        job = job_;
        job->entered.fetch_add(1);
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (task) {
      task();
      continue;
    }
    RunChunks(*job);
    {
      base::MutexLock lock(mutex_);
      job->entered.fetch_sub(1);
    }
    done_cv_.NotifyAll();
  }
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& chunk_fn) {
  if (num_chunks <= 0) return;
  if (workers_.empty() || num_chunks == 1 || InWorker()) {
    // Inline path: no workers, trivially small job, or a nested call from a
    // worker (which must not block on pool capacity it occupies).
    for (int64_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  Job job;
  job.num_chunks = num_chunks;
  job.fn = &chunk_fn;
  {
    base::MutexLock lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.NotifyAll();
  RunChunks(job);
  {
    // All chunks are claimed once the caller's RunChunks returns; wait for
    // workers still executing theirs before the stack Job dies.
    base::MutexLock lock(mutex_);
    while (job.entered.load() != 0) done_cv_.Wait(mutex_);
    job_ = nullptr;
  }
  std::exception_ptr error;
  {
    base::MutexLock lock(job.error_mutex);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  const int64_t range = end - begin;
  const int64_t num_chunks = (range + grain - 1) / grain;
  // Chunking depends only on (range, grain), never on the worker count, so
  // these counters stay bit-identical across BENCHTEMP_NUM_THREADS.
  auto& registry = obs::MetricRegistry::Global();
  registry.Add(obs::Counter::kParallelForCalls, 1);
  registry.Add(obs::Counter::kParallelForChunks, num_chunks);
  ThreadPool::Global().Run(num_chunks, [&](int64_t chunk) {
    const int64_t chunk_begin = begin + chunk * grain;
    fn(chunk_begin, std::min<int64_t>(end, chunk_begin + grain));
  });
}

}  // namespace benchtemp::runtime
