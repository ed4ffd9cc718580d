// Clang thread-safety annotations plus the lockable primitives the rest of
// the library is required to use (docs/CONCURRENCY.md).
//
// Under Clang, the FVL_* macros expand to the static thread-safety
// attributes, and the dedicated CI lane compiles the tree with
// `-Wthread-safety -Werror=thread-safety`, so reading or writing a
// FVL_GUARDED_BY member without holding its mutex is a *compile error*
// there. Under GCC (the tier-1 and TSan lanes) the macros expand to
// nothing and the same discipline is checked dynamically by
// `-fsanitize=thread` (tests/concurrency_stress_test.cc drives it).
//
// The repo-specific rule enforced by tools/fvl_lint.py: no naked
// `std::mutex` / `std::condition_variable` / `std::lock_guard` /
// `std::unique_lock` anywhere in src/fvl/ outside this header. Code takes
// fvl::Mutex (an annotated lockable wrapping std::mutex), fvl::MutexLock
// (a scoped guard), and fvl::CondVar (a condition variable whose Wait
// declares the mutex it requires). The wrapper is what makes the static
// analysis possible at all — std::lock_guard<std::mutex> carries no
// capability information, so an unguarded access next to one is invisible
// to the compiler.

#ifndef FVL_UTIL_THREAD_ANNOTATIONS_H_
#define FVL_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define FVL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FVL_THREAD_ANNOTATION(x)  // GCC: no static analysis; TSan covers it
#endif

// A type that is a lock (a "capability" in Clang's model).
#define FVL_CAPABILITY(name) FVL_THREAD_ANNOTATION(capability(name))
#define FVL_LOCKABLE FVL_CAPABILITY("mutex")
// A RAII type that acquires in its constructor and releases in its
// destructor.
#define FVL_SCOPED_CAPABILITY FVL_THREAD_ANNOTATION(scoped_lockable)

// Data members: reads and writes require the named mutex. FVL_PT_GUARDED_BY
// guards what the member points to, not the pointer itself.
#define FVL_GUARDED_BY(mu) FVL_THREAD_ANNOTATION(guarded_by(mu))
#define FVL_PT_GUARDED_BY(mu) FVL_THREAD_ANNOTATION(pt_guarded_by(mu))

// Functions: the caller must hold / must not hold the named mutexes.
#define FVL_REQUIRES(...) \
  FVL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FVL_EXCLUDES(...) FVL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions that change the lock state.
#define FVL_ACQUIRE(...) \
  FVL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FVL_RELEASE(...) \
  FVL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

namespace fvl {

// std::mutex with a capability attribute. Lock()/Unlock() exist for
// MutexLock and for the one wait loop that must drop the lock mid-scope
// (net/server.cc's batcher); everything else uses MutexLock.
class FVL_LOCKABLE Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FVL_ACQUIRE() { raw_.lock(); }
  void Unlock() FVL_RELEASE() { raw_.unlock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

// Scoped lock; the std::lock_guard of the annotated world.
class FVL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) FVL_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() FVL_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable over fvl::Mutex. Wait() declares (statically) that the
// mutex must already be held, which is exactly the std::condition_variable
// contract the compiler could never check. Spurious wakeups are the
// caller's business: wait in a `while (!pred) cv.Wait(&mu);` loop, which
// keeps the predicate inside the lock context the analysis checks.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) FVL_REQUIRES(mu) {
    // condition_variable_any unlocks/relocks through BasicLockable, which
    // std::mutex satisfies; the capability is held again when Wait returns,
    // matching the REQUIRES annotation.
    cv_.wait(mu->raw_);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace fvl

#endif  // FVL_UTIL_THREAD_ANNOTATIONS_H_
