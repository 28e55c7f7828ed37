// Clang thread-safety annotations (no-ops on other compilers) plus a
// minimal annotated mutex wrapper. The standard library's std::mutex /
// std::lock_guard carry no capability attributes under libstdc++, so code
// that wants `-Wthread-safety` to actually prove anything must lock through
// util::Mutex / util::MutexLock and mark guarded state with
// SHAPESTATS_GUARDED_BY. The clang CI job builds with -Wthread-safety
// (see .github/workflows/ci.yml); gcc compiles the macros away.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define SHAPESTATS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SHAPESTATS_THREAD_ANNOTATION__(x)
#endif

#define SHAPESTATS_CAPABILITY(x) SHAPESTATS_THREAD_ANNOTATION__(capability(x))
#define SHAPESTATS_SCOPED_CAPABILITY SHAPESTATS_THREAD_ANNOTATION__(scoped_lockable)
#define SHAPESTATS_GUARDED_BY(x) SHAPESTATS_THREAD_ANNOTATION__(guarded_by(x))
#define SHAPESTATS_PT_GUARDED_BY(x) SHAPESTATS_THREAD_ANNOTATION__(pt_guarded_by(x))
#define SHAPESTATS_REQUIRES(...) \
  SHAPESTATS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define SHAPESTATS_EXCLUDES(...) \
  SHAPESTATS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define SHAPESTATS_ACQUIRE(...) \
  SHAPESTATS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define SHAPESTATS_RELEASE(...) \
  SHAPESTATS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define SHAPESTATS_NO_THREAD_SAFETY_ANALYSIS \
  SHAPESTATS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace shapestats::util {

/// std::mutex with capability annotations, so the thread-safety analysis
/// can connect locking to SHAPESTATS_GUARDED_BY members.
class SHAPESTATS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SHAPESTATS_ACQUIRE() { mu_.lock(); }
  void Unlock() SHAPESTATS_RELEASE() { mu_.unlock(); }

  // BasicLockable spellings so util::Mutex can be waited on with
  // std::condition_variable_any (used by util::ThreadPool).
  void lock() SHAPESTATS_ACQUIRE() { mu_.lock(); }
  void unlock() SHAPESTATS_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for util::Mutex (the annotated std::lock_guard equivalent).
class SHAPESTATS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SHAPESTATS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SHAPESTATS_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace shapestats::util
