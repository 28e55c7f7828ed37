// Shared fixed-size thread pool for the preprocessing pipeline and batched
// query execution. Design points:
//
//  * `ThreadPool(n)` provides n-way parallelism *including the calling
//    thread*: n-1 workers are spawned and ParallelFor has the caller claim
//    chunks alongside them. `ThreadPool(1)` (or 0) spawns no workers and
//    runs everything inline, so "threads=1" is byte-for-byte the sequential
//    code path — the determinism tests rely on this.
//  * ParallelFor is deadlock-free under nesting: work is claimed from a
//    shared atomic cursor and the caller always participates, so progress
//    never depends on a worker being free.
//  * The process-wide pool (`Shared()`) is sized by the SHAPESTATS_THREADS
//    environment variable, defaulting to the hardware concurrency. It is
//    intentionally leaked so worker shutdown never races static
//    destruction.
//  * The queue is guarded by the annotated util::Mutex so clang's
//    -Wthread-safety proves the locking discipline; cheap activity stats
//    (tasks executed, peak queue depth) are relaxed atomics surfaced to the
//    obs::MetricsRegistry by obs::PublishSharedPoolMetrics().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace shapestats::util {

class ThreadPool {
 public:
  /// `threads` is the total parallelism, caller included; values <= 1 mean
  /// fully sequential (no worker threads are spawned). `label` names the
  /// pool in metrics and traces; empty picks "pool-N" from a process-wide
  /// counter.
  explicit ThreadPool(unsigned threads, std::string label = "");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (callers of ParallelFor count as one).
  unsigned num_threads() const { return num_threads_; }

  /// Stable name used in metrics (`pool.<label>.*`) and trace timelines.
  /// The shared pool is labeled "shared".
  const std::string& label() const { return label_; }

  /// True when the pool runs everything inline on the calling thread.
  bool sequential() const { return workers_.empty(); }

  /// Enqueues a task. With no workers the task runs inline before Submit
  /// returns. Fire-and-forget: use ParallelFor when completion matters.
  void Submit(std::function<void()> fn);

  /// Runs fn(i) for every i in [begin, end), returning when all calls have
  /// completed. The caller participates; iterations may run in any order and
  /// on any thread, so fn must only touch state owned by iteration i.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Chunked variant: runs fn(lo, hi) over a partition of [begin, end) into
  /// contiguous chunks of at least `min_chunk` elements. Use for cheap
  /// per-element work where per-index dispatch would dominate.
  void ParallelForChunks(size_t begin, size_t end, size_t min_chunk,
                         const std::function<void(size_t, size_t)>& fn);

  /// Monotonic activity counters (relaxed reads; safe from any thread).
  struct StatsSnapshot {
    uint64_t tasks_executed = 0;    // pool tasks + ParallelFor chunks run
    uint64_t peak_queue_depth = 0;  // high-water mark of the work queue
    unsigned num_threads = 1;
  };
  StatsSnapshot stats() const;

  /// Pool size from SHAPESTATS_THREADS (clamped to [1, 512]), defaulting to
  /// std::thread::hardware_concurrency().
  static unsigned DefaultThreads();

  /// Process-wide pool of DefaultThreads() threads. Never destroyed.
  static ThreadPool& Shared();

  /// Observation hook invoked after every executed task ("task") or
  /// ParallelFor chunk ("chunk") with the wall-clock interval the work ran
  /// in, on the thread that ran it. A single process-wide raw function
  /// pointer (not std::function) so installation is race-free via an atomic
  /// store and the uninstalled cost is one relaxed load per task. util must
  /// not depend on obs, so obs::InstallPoolTraceHook() injects the Chrome
  /// tracer through this seam.
  using TaskTimingHook = void (*)(const ThreadPool& pool, const char* kind,
                                  std::chrono::steady_clock::time_point start,
                                  std::chrono::steady_clock::time_point end);
  static void SetTaskTimingHook(TaskTimingHook hook);

 private:
  struct ForState;

  void WorkerLoop();
  void RunChunks(const std::shared_ptr<ForState>& state);

  /// Runs `fn()` and reports it to the timing hook (if installed) and the
  /// task counter. Templated so ParallelFor chunks avoid a std::function
  /// allocation per chunk.
  template <typename Fn>
  void RunTimed(const Fn& fn, const char* kind) {
    TaskTimingHook hook = timing_hook_.load(std::memory_order_relaxed);
    if (hook == nullptr) {
      fn();
    } else {
      auto start = std::chrono::steady_clock::now();
      fn();
      hook(*this, kind, start, std::chrono::steady_clock::now());
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }

  static std::atomic<TaskTimingHook> timing_hook_;

  const unsigned num_threads_;
  const std::string label_;
  mutable Mutex mu_;
  std::condition_variable_any cv_;  // signalled with mu_ held
  std::deque<std::function<void()>> queue_ SHAPESTATS_GUARDED_BY(mu_);
  bool stop_ SHAPESTATS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> peak_queue_depth_{0};
};

}  // namespace shapestats::util
