#ifndef BENCHTEMP_BASE_MUTEX_H_
#define BENCHTEMP_BASE_MUTEX_H_

// Annotated synchronization primitives (see DESIGN.md, "Layering & lock
// discipline").
//
// std::mutex carries no capability attributes, so clang's thread-safety
// analysis cannot see std::lock_guard acquire it and GUARDED_BY members
// would warn even in correctly locked code. base::Mutex / base::MutexLock /
// base::CondVar are thin zero-overhead wrappers over the std primitives
// that carry the attributes, making GUARDED_BY enforceable with
// -Werror=thread-safety on the clang CI leg. Off clang they compile to
// exactly the std types they wrap.

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "base/thread_annotations.h"

namespace benchtemp::base {

/// An annotated exclusive mutex. Prefer MutexLock for scoped acquisition.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped acquisition of a Mutex (the std::lock_guard counterpart).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to base::Mutex. Every Wait* overload REQUIRES
/// the mutex held and returns with it re-held; the caller owns the
/// predicate loop:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.Wait(mutex_);
///
/// (Spurious wakeups are possible by contract — never wait without the
/// enclosing while.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    // The caller re-checks its predicate in a while loop per the class
    // contract. NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions)
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  /// Waits at most `ms` milliseconds; returns false on timeout.
  bool WaitForMs(Mutex& mu, int64_t ms) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    // Callers loop on the return value per the class contract.
    // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions)
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::milliseconds(ms));
    lock.release();
    return status != std::cv_status::timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace benchtemp::base

#endif  // BENCHTEMP_BASE_MUTEX_H_
