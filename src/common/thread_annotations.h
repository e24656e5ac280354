// Clang thread-safety annotations and capability-annotated lock primitives
// (DESIGN.md §14).
//
// The streaming service's determinism and recovery guarantees lean on a small
// set of locks (the bounded ingest queue, the fault registry, the
// ingest-status slot). Each of those invariants used to be
// enforced only dynamically — a TSan job has to *schedule* the racy
// interleaving to see it. These macros move the contract to compile time:
// a member declared LTC_GUARDED_BY(mu_) that is touched without mu_ held is
// a -Wthread-safety build break under Clang (the static-analysis CI job
// compiles with -Wthread-safety -Werror), not a sanitizer roll of the dice.
//
// On compilers without the capability-analysis attributes (GCC builds, the
// tier-1 jobs) every macro expands to nothing and the primitives below are
// plain std wrappers — zero behavioural or layout difference, pinned by
// tests/thread_annotations_test.cc building and passing under GCC.
//
// Conventions (enforced by tools/ltc_lint.py's `guarded-member` audit):
//   * every std::mutex-protected member is declared on a common::Mutex and
//     carries LTC_GUARDED_BY(that_mutex);
//   * lock acquisition goes through common::MutexLock (scoped) or
//     Lock/Unlock (annotated) — never a bare std::lock_guard over a naked
//     std::mutex in annotated classes;
//   * condition waits go through common::CondVar, whose Wait() requires the
//     capability so the predicate provably runs under the lock.

#ifndef LTC_COMMON_THREAD_ANNOTATIONS_H_
#define LTC_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros. Clang-only; no-ops elsewhere.

#if defined(__clang__) && defined(__has_attribute)
#define LTC_THREAD_ANNOTATION_IMPL(x) __attribute__((x))
#else
#define LTC_THREAD_ANNOTATION_IMPL(x)  // no-op on non-Clang compilers
#endif

/// Declares a type to be a lockable capability ("mutex").
#define LTC_CAPABILITY(x) LTC_THREAD_ANNOTATION_IMPL(capability(x))

/// Declares an RAII type whose lifetime holds a capability.
#define LTC_SCOPED_CAPABILITY LTC_THREAD_ANNOTATION_IMPL(scoped_lockable)

/// Member is readable/writable only with the named mutex held.
#define LTC_GUARDED_BY(x) LTC_THREAD_ANNOTATION_IMPL(guarded_by(x))

/// Pointee is protected by the named mutex (the pointer itself is not).
#define LTC_PT_GUARDED_BY(x) LTC_THREAD_ANNOTATION_IMPL(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and does not
/// release them).
#define LTC_REQUIRES(...) \
  LTC_THREAD_ANNOTATION_IMPL(requires_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held (guards
/// against self-deadlock on non-reentrant mutexes).
#define LTC_EXCLUDES(...) LTC_THREAD_ANNOTATION_IMPL(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (held on exit, not on entry).
#define LTC_ACQUIRE(...) \
  LTC_THREAD_ANNOTATION_IMPL(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define LTC_RELEASE(...) \
  LTC_THREAD_ANNOTATION_IMPL(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; holds it iff the return value equals
/// the first argument.
#define LTC_TRY_ACQUIRE(...) \
  LTC_THREAD_ANNOTATION_IMPL(try_acquire_capability(__VA_ARGS__))

/// Returns a reference to the named capability (accessor annotation).
#define LTC_RETURN_CAPABILITY(x) LTC_THREAD_ANNOTATION_IMPL(lock_returned(x))

/// Escape hatch: suppress the analysis for one function. Every use must
/// carry a justification comment (DESIGN.md §14).
#define LTC_NO_THREAD_SAFETY_ANALYSIS \
  LTC_THREAD_ANNOTATION_IMPL(no_thread_safety_analysis)

namespace ltc {

// ---------------------------------------------------------------------------
// Capability-annotated primitives over the std types.
//
// std::mutex itself carries no capability attributes in libstdc++/libc++, so
// the analysis cannot follow it. These wrappers are layout-transparent
// (one member, no virtuals) and compile to the identical code; they exist
// purely to give the analysis something to track.

/// \brief A std::mutex the thread-safety analysis can see.
class LTC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LTC_ACQUIRE() { mu_.lock(); }
  void Unlock() LTC_RELEASE() { mu_.unlock(); }
  bool TryLock() LTC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for CondVar only. Callers must not lock it
  /// directly — that would bypass the analysis.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// \brief Scoped Lock/Unlock of a Mutex (the std::lock_guard shape).
class LTC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LTC_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() LTC_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Condition variable bound to common::Mutex.
///
/// Wait() requires the capability: the analysis then knows the predicate and
/// every guarded access around the wait run under the lock. Internally the
/// wait adopts the already-held native mutex and releases it back un-owned,
/// so the wrapper adds no extra lock round-trips.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu and blocks; *mu is re-held on return.
  ///
  /// Deliberately no predicate overload: a predicate lambda is analyzed as
  /// its own function with no capabilities held, so guarded reads inside it
  /// would defeat the analysis. Callers write the loop —
  ///   while (!ready_) cv_.Wait(&mu_);
  /// — which keeps every guarded access inside the annotated scope.
  void Wait(Mutex* mu) LTC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ltc

#endif  // LTC_COMMON_THREAD_ANNOTATIONS_H_
