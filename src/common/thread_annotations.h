// Clang Thread Safety Analysis: the compile-time locking contract.
//
// Every mutex in src/ is a gts::Mutex declared here, every piece of shared
// state names the mutex that guards it with GUARDED_BY, and every function
// that assumes a lock is held says so with REQUIRES. Under clang the whole
// tree builds with -Wthread-safety -Wthread-safety-beta -Werror (see the
// thread-safety CI job), so an unguarded access, a forgotten unlock, or a
// REQUIRES call on the wrong mutex is a build break, not a TSan roll of the
// dice. Under gcc the macros expand to nothing and the wrappers are
// zero-cost shims over the std primitives.
//
// This header is the ONLY file in src/ allowed to spell std::mutex,
// std::lock_guard, std::condition_variable and friends;
// tools/check_invariants.py enforces that textually, and the compile-fail
// fixtures under tests/compile_fail/ prove the analysis actually fires.

#ifndef GTS_COMMON_THREAD_ANNOTATIONS_H_
#define GTS_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define GTS_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define GTS_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op off clang
#endif

#define CAPABILITY(x) GTS_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

#define SCOPED_CAPABILITY GTS_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

#define GUARDED_BY(x) GTS_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

#define PT_GUARDED_BY(x) GTS_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

#define EXCLUDES(...) GTS_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

#define RETURN_CAPABILITY(x) GTS_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  GTS_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace gts {

// Annotated exclusive mutex. Lock()/Unlock() are the project-facing API;
// the lowercase lock()/unlock() aliases satisfy BasicLockable so CondVar
// (std::condition_variable_any underneath) can wait on it directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable, for std::condition_variable_any. The std wait
  // implementation unlocks/relocks from inside a system header, where the
  // analysis suppresses its diagnostics — which is exactly right: the
  // caller's capability is unchanged across a Wait.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock for a Mutex: the scoped counterpart the analysis tracks.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable over gts::Mutex. There are no predicate overloads on
// purpose: a predicate lambda is analyzed as a separate function and cannot
// see the caller's capability, so guarded reads inside it would defeat the
// analysis. Callers write the standard loop instead —
//
//   while (!condition) cv_.Wait(&mu_);
//
// — which keeps the guarded reads in the annotated function body.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) { cv_.wait(*mu); }

  void SignalOne() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gts

#endif  // GTS_COMMON_THREAD_ANNOTATIONS_H_
