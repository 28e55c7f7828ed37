// Per-query resource accounting: the executor-facing half of the
// introspection plane (DESIGN.md §12). A ResourceTracker is a small bag of
// atomics one query execution publishes into — index probes, rows scanned /
// produced / materialized, and bytes held in materialization state (via
// MemoryAccount + CountingAllocator on the physical executor's buffers).
// Executors keep their counters in locals and publish on the existing
// amortized work tick (every ~1024 probes/scans), so the accounting costs
// one branch per tick, not per row. The same tick doubles as the
// cooperative cancellation point: RequestCancel() from any thread stops a
// running query within one work tick. Depends only on util so every
// execution layer can link it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace shapestats::obs {

/// Point-in-time copy of one query's resource counters.
struct ResourceSnapshot {
  uint64_t index_probes = 0;
  uint64_t rows_scanned = 0;
  /// Intermediate bindings produced across all join steps (the true-cost
  /// work measure; equals the sum of per-step true cardinalities).
  uint64_t rows_produced = 0;
  /// Rows appended to the physical executor's materialization buffers
  /// (0 for streaming executions, which never materialize).
  uint64_t rows_materialized = 0;
  /// Monotonic total of bytes charged for join state (materialization
  /// buffers and the merge's sort scratch).
  uint64_t build_bytes = 0;
  /// Live charged bytes at snapshot time.
  uint64_t current_bytes = 0;
  /// High-water mark of live charged bytes — peak per-query memory.
  uint64_t peak_bytes = 0;

  bool Empty() const {
    return index_probes == 0 && rows_scanned == 0 && rows_produced == 0 &&
           rows_materialized == 0 && build_bytes == 0 && peak_bytes == 0;
  }
  /// `{"index_probes":..,"rows_scanned":..,...}`.
  std::string ToJson() const;
  /// One-line human rendering for tables and the shell.
  std::string ToText() const;
};

/// Byte ledger for one query's materialization state. Charge/Release track
/// the live footprint and its peak; the monotonic total is the build-bytes
/// measure. Thread-safe (the physical executor is single-threaded per
/// query, but snapshots race with execution).
class MemoryAccount {
 public:
  void Charge(size_t bytes) {
    total_.fetch_add(bytes, std::memory_order_relaxed);
    uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  void Release(size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  uint64_t current() const { return current_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> total_{0};
};

/// Standard-allocator shim charging every vector allocation to a
/// MemoryAccount. A null account is a no-op, so container types stay fixed
/// whether or not a query is tracked. Containers sharing an account compare
/// equal; swap/copy/move propagate the account with the storage.
template <typename T>
class CountingAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  CountingAllocator() = default;
  explicit CountingAllocator(MemoryAccount* account) : account_(account) {}
  template <typename U>
  CountingAllocator(const CountingAllocator<U>& other)  // NOLINT(runtime/explicit)
      : account_(other.account()) {}

  T* allocate(size_t n) {
    if (account_ != nullptr) account_->Charge(n * sizeof(T));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) {
    if (account_ != nullptr) account_->Release(n * sizeof(T));
    ::operator delete(p);
  }

  MemoryAccount* account() const { return account_; }

  friend bool operator==(const CountingAllocator& a,
                         const CountingAllocator& b) {
    return a.account_ == b.account_;
  }
  friend bool operator!=(const CountingAllocator& a,
                         const CountingAllocator& b) {
    return !(a == b);
  }

 private:
  MemoryAccount* account_ = nullptr;
};

/// The per-query accounting hub. One tracker lives for one Execute (or
/// ExplainAnalyze) call; the executor publishes its local counters into it
/// on the amortized work tick and at completion, and any thread may read a
/// consistent-enough snapshot or request cooperative cancellation.
class ResourceTracker {
 public:
  /// Publishes the executor's running totals (absolute values, not deltas)
  /// and the 0-based step currently executing. Called on the work tick.
  void Publish(uint64_t probes, uint64_t scanned, uint64_t produced,
               uint64_t materialized, uint32_t step) {
    probes_.store(probes, std::memory_order_relaxed);
    scanned_.store(scanned, std::memory_order_relaxed);
    produced_.store(produced, std::memory_order_relaxed);
    materialized_.store(materialized, std::memory_order_relaxed);
    step_.store(step, std::memory_order_relaxed);
  }

  /// Asks the running query to stop at its next work tick.
  void RequestCancel() {
    cancel_requested_.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_relaxed);
  }
  /// Set by the executor when it actually aborted on the cancel flag —
  /// distinguishes a served cancellation from one that raced completion.
  void NoteCancelObserved() {
    cancel_observed_.store(true, std::memory_order_relaxed);
  }
  bool cancelled() const {
    return cancel_observed_.load(std::memory_order_relaxed);
  }

  MemoryAccount& memory() { return memory_; }
  const MemoryAccount& memory() const { return memory_; }
  uint32_t current_step() const {
    return step_.load(std::memory_order_relaxed);
  }

  /// Zeroes every counter and flag, for a tracker reused by a new query.
  void Reset() {
    Publish(0, 0, 0, 0, 0);
    cancel_requested_.store(false, std::memory_order_relaxed);
    cancel_observed_.store(false, std::memory_order_relaxed);
    memory_.Reset();
  }

  ResourceSnapshot Snapshot() const {
    ResourceSnapshot s;
    s.index_probes = probes_.load(std::memory_order_relaxed);
    s.rows_scanned = scanned_.load(std::memory_order_relaxed);
    s.rows_produced = produced_.load(std::memory_order_relaxed);
    s.rows_materialized = materialized_.load(std::memory_order_relaxed);
    s.build_bytes = memory_.total();
    s.current_bytes = memory_.current();
    s.peak_bytes = memory_.peak();
    return s;
  }

 private:
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> scanned_{0};
  std::atomic<uint64_t> produced_{0};
  std::atomic<uint64_t> materialized_{0};
  std::atomic<uint32_t> step_{0};
  std::atomic<bool> cancel_requested_{false};
  std::atomic<bool> cancel_observed_{false};
  MemoryAccount memory_;
};

}  // namespace shapestats::obs
