#include "obs/query_registry.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "obs/process_clock.h"

namespace shapestats::obs {

/// One in-flight query. A record is owned by the registry and recycled
/// through its free list. The identity fields and the query text are
/// written under the registry's mutex as the record is linked into the
/// live list (readers see them under the same mutex); phase, template and
/// step count are atomics the query's own thread updates without a lock;
/// the tracker is atomically updated by the executor. `prev`/`next` link
/// the live list and the free list (next only), both guarded by the
/// registry's mutex.
struct LiveQuery {
  uint64_t id = 0;
  uint64_t request_id = 0;
  uint64_t batch_id = 0;
  uint32_t slot = 0;
  double started_ms = 0;
  std::string query;  // capacity kept across reuses
  std::atomic<uint8_t> phase{0};
  std::atomic<bool> has_template{false};
  std::atomic<uint64_t> template_hash{0};
  std::atomic<uint64_t> steps_total{0};
  ResourceTracker tracker;
  LiveQuery* prev = nullptr;
  LiveQuery* next = nullptr;
};

namespace {

QueryRecord Freeze(const LiveQuery& q, double now_ms) {
  QueryRecord r;
  r.id = q.id;
  r.request_id = q.request_id;
  r.batch_id = q.batch_id;
  r.slot = q.slot;
  r.query = q.query;
  if (q.has_template.load(std::memory_order_acquire)) {
    r.cache_template = TemplateId(q.template_hash.load(std::memory_order_relaxed));
  }
  r.phase = PhaseName(static_cast<Phase>(q.phase.load(std::memory_order_relaxed)));
  r.steps_total = q.steps_total.load(std::memory_order_relaxed);
  r.resources = q.tracker.Snapshot();
  r.steps_completed = q.tracker.current_step();
  r.rows_produced = r.resources.rows_produced;
  r.started_ms = q.started_ms;
  r.elapsed_ms = now_ms - q.started_ms;
  return r;
}

constexpr const char* kUncached = "(uncached)";
constexpr const char* kOther = "(other)";

}  // namespace

std::string QueryRecord::ToJson() const {
  std::string out = "{\"id\":" + std::to_string(id);
  if (request_id != 0) out += ",\"request_id\":" + std::to_string(request_id);
  if (batch_id != 0) {
    out += ",\"batch_id\":" + std::to_string(batch_id) +
           ",\"slot\":" + std::to_string(slot);
  }
  out += ",\"query\":\"" + JsonEscape(query) + "\"";
  if (!cache_template.empty()) {
    out += ",\"template\":\"" + JsonEscape(cache_template) + "\"";
  }
  out += ",\"phase\":\"" + JsonEscape(phase) + "\"";
  if (!outcome.empty()) out += ",\"outcome\":\"" + JsonEscape(outcome) + "\"";
  out += ",\"steps_completed\":" + std::to_string(steps_completed) +
         ",\"steps_total\":" + std::to_string(steps_total) +
         ",\"rows_produced\":" + std::to_string(rows_produced);
  if (!outcome.empty()) {
    out += ",\"num_results\":" + std::to_string(num_results);
  }
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f", elapsed_ms);
  out += ",\"elapsed_ms\":" + std::string(ms);
  out += ",\"resources\":" + resources.ToJson();
  return out + "}";
}

QueryRecord QueryRegistry::CompletedQuery::ToRecord() const {
  QueryRecord r;
  r.id = id;
  r.request_id = request_id;
  r.batch_id = batch_id;
  r.slot = slot;
  r.query = query;
  if (has_template) r.cache_template = TemplateId(template_hash);
  r.phase = PhaseName(Phase::kDone);
  r.outcome = OutcomeName(outcome);
  r.steps_total = steps_total;
  // A finished query completed every step of its plan.
  r.steps_completed = steps_total;
  r.rows_produced = resources.rows_produced;
  r.num_results = num_results;
  r.started_ms = started_ms;
  r.elapsed_ms = elapsed_ms;
  r.resources = resources;
  return r;
}

QueryRegistry::QueryRegistry()
    : inflight_gauge_(MetricsRegistry::Global().GetGauge("registry.inflight")),
      completed_counter_(
          MetricsRegistry::Global().GetCounter("registry.completed")),
      cancels_counter_(
          MetricsRegistry::Global().GetCounter("registry.cancels")) {}

QueryRegistry::~QueryRegistry() = default;

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

// ---------------------------------------------------------------------------
// Registration

uint64_t QueryRegistry::Registration::id() const {
  return rec_ != nullptr ? rec_->id : 0;
}

ResourceTracker* QueryRegistry::Registration::tracker() const {
  return rec_ != nullptr ? &rec_->tracker : nullptr;
}

void QueryRegistry::Registration::SetPhase(Phase phase) {
  if (rec_ == nullptr) return;
  rec_->phase.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
}

void QueryRegistry::Registration::SetTemplate(uint64_t template_hash) {
  if (rec_ == nullptr) return;
  rec_->template_hash.store(template_hash, std::memory_order_relaxed);
  rec_->has_template.store(true, std::memory_order_release);
}

void QueryRegistry::Registration::SetStepsTotal(uint64_t steps) {
  if (rec_ == nullptr) return;
  rec_->steps_total.store(steps, std::memory_order_relaxed);
}

void QueryRegistry::Registration::Complete(Outcome outcome,
                                           uint64_t num_results,
                                           double finished_ms) {
  if (rec_ == nullptr || registry_ == nullptr) return;
  registry_->CompleteRecord(rec_, outcome, num_results, finished_ms);
  rec_ = nullptr;
  registry_ = nullptr;
}

// ---------------------------------------------------------------------------
// QueryRegistry

QueryRegistry::Registration QueryRegistry::Register(std::string_view query,
                                                    uint64_t request_id,
                                                    uint64_t batch_id,
                                                    uint32_t slot,
                                                    double started_ms) {
  util::MutexLock lock(mu_);
  LiveQuery* rec;
  if (free_ != nullptr) {
    rec = free_;
    free_ = rec->next;
  } else {
    records_.push_back(std::make_unique<LiveQuery>());
    rec = records_.back().get();
  }
  // Ids are only handed out under mu_, so a load and a store suffice.
  rec->id = next_id_.load(std::memory_order_relaxed);
  next_id_.store(rec->id + 1, std::memory_order_relaxed);
  rec->request_id = request_id;
  rec->batch_id = batch_id;
  rec->slot = slot;
  rec->started_ms = started_ms;
  rec->query.assign(query.substr(0, kMaxQueryBytes));
  rec->phase.store(static_cast<uint8_t>(Phase::kParse),
                   std::memory_order_relaxed);
  rec->has_template.store(false, std::memory_order_relaxed);
  rec->template_hash.store(0, std::memory_order_relaxed);
  rec->steps_total.store(0, std::memory_order_relaxed);
  rec->tracker.Reset();
  rec->prev = nullptr;
  rec->next = live_;
  if (live_ != nullptr) live_->prev = rec;
  live_ = rec;
  inflight_gauge_->Add(1);
  Registration reg;
  reg.registry_ = this;
  reg.rec_ = rec;
  return reg;
}

size_t QueryRegistry::NumAggregatesLocked() const {
  return by_template_.size() + (uncached_.executions > 0) +
         (other_.executions > 0);
}

void QueryRegistry::CompleteRecord(LiveQuery* rec, Outcome outcome,
                                   uint64_t num_results, double finished_ms) {
  const ResourceSnapshot resources = rec->tracker.Snapshot();
  const bool has_template = rec->has_template.load(std::memory_order_relaxed);
  const uint64_t template_hash =
      rec->template_hash.load(std::memory_order_relaxed);
  inflight_gauge_->Add(-1);
  completed_counter_->Add();

  util::MutexLock lock(mu_);
  if (rec->prev != nullptr) {
    rec->prev->next = rec->next;
  } else {
    live_ = rec->next;
  }
  if (rec->next != nullptr) rec->next->prev = rec->prev;
  const double elapsed_ms = finished_ms - rec->started_ms;
  // New templates beyond kMaxTemplates (the uncached bucket included) fold
  // into the overflow bucket, so a hostile workload cannot grow memory.
  Aggregate* agg;
  if (!has_template) {
    agg = uncached_.executions == 0 && NumAggregatesLocked() >= kMaxTemplates
              ? &other_
              : &uncached_;
  } else if (auto it = by_template_.find(template_hash);
             it != by_template_.end()) {
    agg = &it->second;
  } else if (NumAggregatesLocked() >= kMaxTemplates) {
    agg = &other_;
  } else {
    agg = &by_template_[template_hash];
  }
  agg->executions += 1;
  agg->rows_produced += resources.rows_produced;
  agg->num_results += num_results;
  agg->total_ms += elapsed_ms;

  CompletedQuery& done = ring_[ring_next_];
  done.id = rec->id;
  done.request_id = rec->request_id;
  done.batch_id = rec->batch_id;
  done.slot = rec->slot;
  // The slot takes the record's text and leaves its old buffer for the
  // record's next query: no copy, no allocation.
  done.query.swap(rec->query);
  done.has_template = has_template;
  done.template_hash = template_hash;
  done.outcome = outcome;
  done.steps_total = rec->steps_total.load(std::memory_order_relaxed);
  done.num_results = num_results;
  done.started_ms = rec->started_ms;
  done.elapsed_ms = elapsed_ms;
  done.resources = resources;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  ring_size_ = std::min(ring_size_ + 1, ring_.size());
  rec->next = free_;
  free_ = rec;
}

bool QueryRegistry::Cancel(uint64_t id) {
  {
    util::MutexLock lock(mu_);
    LiveQuery* rec = live_;
    while (rec != nullptr && rec->id != id) rec = rec->next;
    if (rec == nullptr) return false;
    // Under the lock: the record cannot complete and be reused by another
    // query meanwhile.
    rec->tracker.RequestCancel();
  }
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  cancels_counter_->Add();
  return true;
}

size_t QueryRegistry::NumInflight() const {
  size_t n = 0;
  util::MutexLock lock(mu_);
  for (const LiveQuery* rec = live_; rec != nullptr; rec = rec->next) ++n;
  return n;
}

std::vector<QueryRecord> QueryRegistry::Inflight() const {
  const double now = MonotonicMs();
  std::vector<QueryRecord> out;
  {
    util::MutexLock lock(mu_);
    for (const LiveQuery* rec = live_; rec != nullptr; rec = rec->next) {
      out.push_back(Freeze(*rec, now));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<QueryRecord> QueryRegistry::Completed(size_t max) const {
  std::vector<QueryRecord> out;
  util::MutexLock lock(mu_);
  const size_t n = max == 0 ? ring_size_ : std::min(max, ring_size_);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t at = (ring_next_ + ring_.size() - 1 - i) % ring_.size();
    out.push_back(ring_[at].ToRecord());
  }
  return out;
}

std::vector<TemplateStats> QueryRegistry::TopTemplates(size_t n) const {
  std::vector<TemplateStats> out;
  {
    util::MutexLock lock(mu_);
    out.reserve(NumAggregatesLocked());
    auto add = [&out](std::string name, const Aggregate& agg) {
      out.push_back({std::move(name), agg.executions, agg.rows_produced,
                     agg.num_results, agg.total_ms});
    };
    for (const auto& [hash, agg] : by_template_) add(TemplateId(hash), agg);
    if (uncached_.executions > 0) add(kUncached, uncached_);
    if (other_.executions > 0) add(kOther, other_);
  }
  std::sort(out.begin(), out.end(),
            [](const TemplateStats& a, const TemplateStats& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              if (a.executions != b.executions) {
                return a.executions > b.executions;
              }
              return a.cache_template < b.cache_template;
            });
  if (n != 0 && out.size() > n) out.resize(n);
  return out;
}

std::string QueryRegistry::ToJson(size_t completed_max) const {
  std::string out = "{\"inflight\":[";
  std::vector<QueryRecord> live = Inflight();
  for (size_t i = 0; i < live.size(); ++i) {
    if (i) out += ",";
    out += live[i].ToJson();
  }
  out += "],\"completed\":[";
  std::vector<QueryRecord> done = Completed(completed_max);
  for (size_t i = 0; i < done.size(); ++i) {
    if (i) out += ",";
    out += done[i].ToJson();
  }
  out += "],\"registered\":" + std::to_string(registered_total()) +
         ",\"cancel_requests\":" + std::to_string(cancelled_total()) + "}";
  return out;
}

}  // namespace shapestats::obs
