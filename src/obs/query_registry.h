// Live query registry: the "what is running right now" half of the
// introspection plane (DESIGN.md §12). Every engine Execute / ExecuteBatch
// slot registers a record (query text, request/batch ids, phase, step
// progress, a ResourceTracker) into a live list for the lifetime of the
// query; completion copies it into a bounded ring and per-template
// aggregates. The server's /debug/queries and the shell's
// .running render snapshots; Cancel(id) flips the record's tracker flag,
// which the executors observe on their next work tick.
//
// Registration costs no allocation in steady state and one lock at each
// end (the live list, the free list, the ring and the aggregates share
// one mutex): records come from a registry-owned free list, the phase, template and step count are atomics
// (the query's own thread writes them without a lock), the template is
// kept as its 64-bit hash and rendered as text only when read, the
// completed ring is preallocated and overwritten in place, and the
// per-template aggregates are keyed by the hash.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/process_clock.h"
#include "obs/query_phase.h"
#include "obs/resource_tracker.h"
#include "util/thread_annotations.h"

namespace shapestats::obs {

struct LiveQuery;

/// Frozen view of one query, either in flight (snapshot) or completed.
struct QueryRecord {
  uint64_t id = 0;          // registry-assigned, process-unique
  uint64_t request_id = 0;  // serving-plane request id (0 = none)
  uint64_t batch_id = 0;    // engine batch id (0 = direct Execute)
  uint32_t slot = 0;        // index within the batch
  std::string query;        // SPARQL text (truncated to kMaxQueryBytes)
  std::string cache_template;  // "t:<hash>" when the plan cache saw it
  std::string phase;  // obs::PhaseName: parse|encode|...|execute, or done
  /// Completed records only, obs::OutcomeName: ok | static-empty |
  /// timeout | row-cap | cancelled | error.
  std::string outcome;
  uint64_t steps_total = 0;      // join steps in the plan (0 before planning)
  uint64_t steps_completed = 0;  // executor's current step
  uint64_t rows_produced = 0;    // intermediate bindings so far
  uint64_t num_results = 0;      // completed records only
  double started_ms = 0;         // process clock at registration
  double elapsed_ms = 0;
  ResourceSnapshot resources;

  std::string ToJson() const;
};

/// Cumulative per-template execution statistics, aggregated from completed
/// registrations (not bounded by the ring). Joined with PlanCache counters
/// by the shell's `.top`.
struct TemplateStats {
  std::string cache_template;
  uint64_t executions = 0;
  uint64_t rows_produced = 0;
  uint64_t num_results = 0;
  double total_ms = 0;
};

class QueryRegistry {
 public:
  /// Completed-query ring capacity.
  static constexpr size_t kCompletedCapacity = 256;
  /// Per-template aggregate map cap; new templates beyond it are folded
  /// into an "(other)" bucket so a hostile workload cannot grow memory.
  static constexpr size_t kMaxTemplates = 1024;
  static constexpr size_t kMaxQueryBytes = 2048;

  QueryRegistry();
  ~QueryRegistry();

  /// Process-wide instance used by the engine unless overridden.
  static QueryRegistry& Global();

  /// RAII registration for one query execution. Destruction without an
  /// explicit Complete() finalizes the record with outcome "error" (the
  /// engine bailed before its finish path).
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept { *this = std::move(other); }
    Registration& operator=(Registration&& other) noexcept {
      if (this != &other) {
        if (rec_ != nullptr) Complete(Outcome::kError, 0);
        registry_ = other.registry_;
        rec_ = other.rec_;
        other.registry_ = nullptr;
        other.rec_ = nullptr;
      }
      return *this;
    }
    ~Registration() {
      if (rec_ != nullptr) Complete(Outcome::kError, 0);
    }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

    explicit operator bool() const { return rec_ != nullptr; }
    uint64_t id() const;
    /// The query's resource tracker; null for an empty registration.
    ResourceTracker* tracker() const;

    void SetPhase(Phase phase);
    /// The plan-cache template, by its hash (rendered "t:%016llx").
    void SetTemplate(uint64_t template_hash);
    void SetStepsTotal(uint64_t steps);

    /// Moves the record into the completed ring and drops it from the
    /// live list, timed as finishing at `finished_ms` (obs::MonotonicMs
    /// timebase). Idempotent; later setter calls are no-ops.
    void Complete(Outcome outcome, uint64_t num_results,
                  double finished_ms = MonotonicMs());

   private:
    friend class QueryRegistry;
    QueryRegistry* registry_ = nullptr;
    LiveQuery* rec_ = nullptr;
  };

  /// `started_ms` is the registration time on the obs::MonotonicMs
  /// timebase; callers that already read the clock pass their reading.
  Registration Register(std::string_view query, uint64_t request_id,
                        uint64_t batch_id, uint32_t slot,
                        double started_ms = MonotonicMs());

  /// Requests cooperative cancellation of a live query. False when the id
  /// is unknown or already completed.
  bool Cancel(uint64_t id);

  size_t NumInflight() const;
  std::vector<QueryRecord> Inflight() const;
  /// Newest-first copy of the completed ring (`max` 0 = all).
  std::vector<QueryRecord> Completed(size_t max = 0) const;
  /// Templates by cumulative execution time, descending.
  std::vector<TemplateStats> TopTemplates(size_t n) const;

  uint64_t registered_total() const {
    // Ids are handed out from 1, one per registration.
    return next_id_.load(std::memory_order_relaxed) - 1;
  }
  uint64_t cancelled_total() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// `{"inflight":[...],"completed":[...],"registered":N,...}` with the
  /// completed list capped at `completed_max` (0 = all).
  std::string ToJson(size_t completed_max = 32) const;

 private:
  /// One completed query, stored in place in the ring.
  struct CompletedQuery {
    uint64_t id = 0;
    uint64_t request_id = 0;
    uint64_t batch_id = 0;
    uint32_t slot = 0;
    std::string query;
    bool has_template = false;
    uint64_t template_hash = 0;
    Outcome outcome = Outcome::kOk;
    uint64_t steps_total = 0;
    uint64_t num_results = 0;
    double started_ms = 0;
    double elapsed_ms = 0;
    ResourceSnapshot resources;

    QueryRecord ToRecord() const;
  };

  /// Cumulative statistics of one template (or of the uncached / overflow
  /// buckets); present once `executions` is nonzero.
  struct Aggregate {
    uint64_t executions = 0;
    uint64_t rows_produced = 0;
    uint64_t num_results = 0;
    double total_ms = 0;
  };

  /// Unlinks `rec` from the live list, copies it into the ring and the
  /// aggregates, and returns it to the free list.
  void CompleteRecord(LiveQuery* rec, Outcome outcome, uint64_t num_results,
                      double finished_ms);
  size_t NumAggregatesLocked() const SHAPESTATS_REQUIRES(mu_);

  Gauge* inflight_gauge_;
  Counter* completed_counter_;
  Counter* cancels_counter_;
  /// Written under mu_; read without it by registered_total().
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> cancelled_{0};
  mutable util::Mutex mu_;
  LiveQuery* live_ SHAPESTATS_GUARDED_BY(mu_) = nullptr;  // list head
  /// Every record the registry ever created, and the idle ones.
  std::vector<std::unique_ptr<LiveQuery>> records_ SHAPESTATS_GUARDED_BY(mu_);
  LiveQuery* free_ SHAPESTATS_GUARDED_BY(mu_) = nullptr;
  /// The completed ring: `ring_next_` is the slot the next completion
  /// overwrites, `ring_size_` the number of slots holding a record.
  std::array<CompletedQuery, kCompletedCapacity> ring_
      SHAPESTATS_GUARDED_BY(mu_);
  size_t ring_next_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  size_t ring_size_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  std::unordered_map<uint64_t, Aggregate> by_template_
      SHAPESTATS_GUARDED_BY(mu_);
  Aggregate uncached_ SHAPESTATS_GUARDED_BY(mu_);
  Aggregate other_ SHAPESTATS_GUARDED_BY(mu_);
};

}  // namespace shapestats::obs
