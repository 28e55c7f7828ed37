// PlanCache: template-keyed cache of everything about a query that does
// not depend on its parameterized constant values — the optimized logical
// plan, the physical operator assignment (before the engine's per-instance
// ASK/LIMIT pipelining downgrade), and the static checker's verdict plus
// inferred class anchors. A hit skips static-check + optimize + physical
// planning entirely: the engine translates the canonical-space plan back
// into the instance's pattern/variable numbering and goes straight to
// execution.
//
// The graph and statistics are immutable after QueryEngine::Open, so the
// only invalidation is the owned FeedbackStore's per-template version,
// checked on every lookup: a published estimate correction bumps the
// version, so the next lookup of that template misses, re-plans under the
// corrected estimates — possibly flipping the join order or an operator —
// and re-inserts. Eviction is LRU with a fixed capacity.
//
// Thread safety: all public methods are safe for concurrent use
// (ExecuteBatch runs queries on a pool); entries are immutable once
// inserted and handed out as shared_ptr<const>.
#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/shape_check.h"
#include "cache/feedback_store.h"
#include "cache/template_key.h"
#include "opt/plan.h"
#include "phys/physical_plan.h"
#include "util/thread_annotations.h"

namespace shapestats::obs {
class Counter;
class Gauge;
}  // namespace shapestats::obs

namespace shapestats::cache {

/// One cached template. Plans and anchors live in *canonical* space:
/// pattern indices are canonical positions and join variables are
/// canonical var ids; PlanToInstance / PhysToInstance translate them back
/// through a CanonicalTemplate's maps.
struct CachedPlan {
  uint64_t template_hash = 0;
  std::string short_id;
  uint32_t num_patterns = 0;

  /// Static-check verdict (valid template-wide; every emptiness rule is
  /// value-independent given the key's constant-distinctness classes).
  bool checked = false;
  analysis::Satisfiability verdict = analysis::Satisfiability::kSatisfiable;
  std::string rule;
  /// Never set by the engine (QueryLint has no error-severity rule); kept
  /// only because the benchmark program writes and reads it.
  bool lint_errors = false;
  /// Inferred class anchors: canonical var id -> class term.
  std::vector<std::pair<uint32_t, rdf::TermId>> inferred;

  /// Logical plan in canonical space (empty when the entry short-circuits).
  opt::Plan plan;
  /// Physical plan in canonical space, *before* any ASK/LIMIT downgrade.
  phys::PhysicalPlan phys;
  /// Correction factors (per canonical pattern) in force when the plan was
  /// built — needed to express later observations against the uncorrected
  /// estimate, and surfaced by EXPLAIN as "est: corrected".
  std::vector<double> corrections;
  /// FeedbackStore::Version at plan time; a newer version invalidates.
  uint64_t feedback_version = 0;
};

class PlanCache {
 public:
  struct Options {
    /// Maximum number of cached templates before LRU eviction.
    size_t capacity = 256;
    /// When false the cache serves plans but records no feedback: no
    /// learned corrections, no feedback-driven invalidations. For
    /// deployments that want repeatable plans, and for benchmarking the
    /// pure hit path.
    bool learn = true;
  };

  struct StatsSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    uint64_t bypasses = 0;
    uint64_t corrections = 0;
    size_t size = 0;
    size_t capacity = 0;
    /// hits / (hits + misses), 0 when no lookups happened.
    double hit_rate = 0;
  };

  PlanCache();
  explicit PlanCache(Options opts);

  /// Looks up a canonical key, counting a hit or miss. A stale entry
  /// (feedback version behind) is erased and counted as an invalidation +
  /// miss.
  std::shared_ptr<const CachedPlan> Get(const std::string& key);

  /// Lookup without touching LRU order or hit/miss counters, but with the
  /// same staleness rules (a stale entry reads as absent). For EXPLAIN.
  std::shared_ptr<const CachedPlan> Peek(const std::string& key) const;

  /// Inserts (or replaces) an entry, evicting the least-recently-used
  /// entry beyond capacity.
  void Put(const std::string& key, std::shared_ptr<CachedPlan> entry);

  /// Counts a query that could not be cached (empty BGP, missing
  /// constants).
  void NoteBypass();

  /// Folds observed/estimated ratios for one template into the feedback
  /// store; publications bump the template version (invalidating its
  /// entry on next lookup) and the cache.corrections counter.
  /// Returns the number of factors published; a no-op returning 0 when
  /// Options::learn is false.
  size_t RecordFeedback(uint64_t template_hash,
                        const std::vector<FeedbackStore::Sample>& samples);

  size_t size() const;
  StatsSnapshot stats() const;

  FeedbackStore& feedback() { return feedback_; }
  const FeedbackStore& feedback() const { return feedback_; }

 private:
  /// True when `entry` is stale under the current feedback version.
  bool Stale(const CachedPlan& entry) const;
  void PublishGauges(size_t size, uint64_t hits, uint64_t misses) const;

  Options opts_;
  FeedbackStore feedback_;

  mutable util::Mutex mu_;
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const CachedPlan>>>;
  LruList lru_ SHAPESTATS_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, LruList::iterator> index_
      SHAPESTATS_GUARDED_BY(mu_);
  uint64_t hits_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  uint64_t bypasses_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  uint64_t corrections_ SHAPESTATS_GUARDED_BY(mu_) = 0;

  // Global-registry instruments, resolved once.
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_evictions_;
  obs::Counter* m_invalidations_;
  obs::Counter* m_bypasses_;
  obs::Counter* m_corrections_;
  obs::Gauge* m_size_;
  obs::Gauge* m_hit_rate_pct_;
};

/// Canonical <-> instance plan translation through a template's maps.
/// Pattern-indexed vectors (tp_estimates, correction_factors) and the
/// join order are permuted; step-indexed data is order-invariant.
opt::Plan PlanToCanonical(const opt::Plan& plan, const CanonicalTemplate& t);
opt::Plan PlanToInstance(const opt::Plan& plan, const CanonicalTemplate& t);
phys::PhysicalPlan PhysToCanonical(const phys::PhysicalPlan& plan,
                                   const CanonicalTemplate& t);
phys::PhysicalPlan PhysToInstance(const phys::PhysicalPlan& plan,
                                  const CanonicalTemplate& t);

}  // namespace shapestats::cache
