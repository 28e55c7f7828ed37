#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace shapestats::util {

namespace {

void RaiseAtomicMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t prev = target.load(std::memory_order_relaxed);
  while (prev < value &&
         !target.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

std::string AutoLabel(std::string label) {
  if (!label.empty()) return label;
  static std::atomic<uint64_t> counter{0};
  return "pool-" + std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

std::atomic<ThreadPool::TaskTimingHook> ThreadPool::timing_hook_{nullptr};

void ThreadPool::SetTaskTimingHook(TaskTimingHook hook) {
  timing_hook_.store(hook, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned threads, std::string label)
    : num_threads_(std::max(1u, threads)), label_(AutoLabel(std::move(label))) {
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  mu_.Lock();
  stop_ = true;
  mu_.Unlock();
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    mu_.Lock();
    while (queue_.empty() && !stop_) cv_.wait(mu_);
    if (queue_.empty()) {  // stop_ set and nothing left to drain
      mu_.Unlock();
      return;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
    mu_.Unlock();
    RunTimed(task, "task");
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (workers_.empty()) {
    RunTimed(fn, "task");
    return;
  }
  size_t depth;
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(fn));
    depth = queue_.size();
  }
  RaiseAtomicMax(peak_queue_depth_, depth);
  cv_.notify_one();
}

// Shared state of one ParallelFor call. Chunks are claimed from `next`; the
// last finisher signals `cv`. Held by shared_ptr so helper tasks that wake
// after the loop already drained remain valid.
struct ThreadPool::ForState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t num_chunks = 0;
  size_t begin = 0;
  size_t count = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  Mutex mu;
  std::condition_variable_any cv;
};

void ThreadPool::RunChunks(const std::shared_ptr<ForState>& state) {
  for (;;) {
    size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->num_chunks) return;
    size_t lo = state->begin + c * state->count / state->num_chunks;
    size_t hi = state->begin + (c + 1) * state->count / state->num_chunks;
    RunTimed([&] { (*state->body)(lo, hi); }, "chunk");
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->num_chunks) {
      // Fence against the waiter: once it holds mu and re-checks `done`, a
      // notify cannot be lost between its check and its wait.
      state->mu.Lock();
      state->mu.Unlock();
      state->cv.notify_all();
    }
  }
}

void ThreadPool::ParallelForChunks(size_t begin, size_t end, size_t min_chunk,
                                   const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  min_chunk = std::max<size_t>(min_chunk, 1);
  // Oversplit a little so an unlucky slow chunk doesn't serialize the tail.
  size_t chunks = std::min((n + min_chunk - 1) / min_chunk,
                           static_cast<size_t>(num_threads_) * 4);
  if (workers_.empty() || chunks <= 1) {
    fn(begin, end);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->num_chunks = chunks;
  state->begin = begin;
  state->count = n;
  state->body = &fn;
  size_t helpers = std::min(workers_.size(), chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([this, state] { RunChunks(state); });
  }
  RunChunks(state);  // the caller claims chunks too — progress is guaranteed
  state->mu.Lock();
  while (state->done.load(std::memory_order_acquire) < state->num_chunks) {
    state->cv.wait(state->mu);
  }
  state->mu.Unlock();
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  ParallelForChunks(begin, end, 1, [&fn](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

ThreadPool::StatsSnapshot ThreadPool::stats() const {
  StatsSnapshot snap;
  snap.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  snap.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  snap.num_threads = num_threads_;
  return snap;
}

unsigned ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("SHAPESTATS_THREADS")) {
    char* endp = nullptr;
    long v = std::strtol(env, &endp, 10);
    if (endp != env && *endp == '\0' && v >= 1 && v <= 512) {
      return static_cast<unsigned>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: workers must never be joined during static
  // destruction of unrelated globals.
  static ThreadPool* pool = new ThreadPool(DefaultThreads(), "shared");
  return *pool;
}

}  // namespace shapestats::util
