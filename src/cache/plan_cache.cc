#include "cache/plan_cache.h"

#include <cstdio>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace shapestats::cache {

PlanCache::PlanCache() : PlanCache(Options()) {}

PlanCache::PlanCache(Options opts) : opts_(opts) {
  if (opts_.capacity == 0) opts_.capacity = 1;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  m_hits_ = reg.GetCounter("cache.hits");
  m_misses_ = reg.GetCounter("cache.misses");
  m_evictions_ = reg.GetCounter("cache.evictions");
  m_invalidations_ = reg.GetCounter("cache.invalidations");
  m_bypasses_ = reg.GetCounter("cache.bypass");
  m_corrections_ = reg.GetCounter("cache.corrections");
  m_size_ = reg.GetGauge("cache.size");
  m_hit_rate_pct_ = reg.GetGauge("cache.hit_rate_pct");
}

bool PlanCache::Stale(const CachedPlan& entry) const {
  // Callers hold mu_; FeedbackStore has its own lock (PlanCache -> Feedback
  // is the only cross-lock order in the subsystem).
  return entry.feedback_version != feedback_.Version(entry.template_hash);
}

void PlanCache::PublishGauges(size_t size, uint64_t hits,
                              uint64_t misses) const {
  m_size_->Set(static_cast<int64_t>(size));
  const uint64_t lookups = hits + misses;
  m_hit_rate_pct_->Set(
      lookups == 0 ? 0 : static_cast<int64_t>(100 * hits / lookups));
}

std::shared_ptr<const CachedPlan> PlanCache::Get(const std::string& key) {
  std::shared_ptr<const CachedPlan> hit;
  bool invalidated = false;
  std::string invalidated_id;
  {
    util::MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (!Stale(*it->second->second)) {
        lru_.splice(lru_.begin(), lru_, it->second);
        hit = it->second->second;
        ++hits_;
      } else {
        invalidated = true;
        invalidated_id = it->second->second->short_id;
        lru_.erase(it->second);
        index_.erase(it);
        ++invalidations_;
        ++misses_;
      }
    } else {
      ++misses_;
    }
    PublishGauges(index_.size(), hits_, misses_);
  }
  if (hit != nullptr) {
    m_hits_->Add();
    return hit;
  }
  m_misses_->Add();
  if (invalidated) {
    m_invalidations_->Add();
    obs::EventLog& log = obs::EventLog::Global();
    if (log.active()) {
      log.Emit(obs::Event("cache.invalidate").Str("template", invalidated_id));
    }
  }
  return nullptr;
}

std::shared_ptr<const CachedPlan> PlanCache::Peek(
    const std::string& key) const {
  util::MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  const auto& entry = it->second->second;
  if (Stale(*entry)) return nullptr;
  return entry;
}

void PlanCache::Put(const std::string& key, std::shared_ptr<CachedPlan> entry) {
  std::string evicted_id;
  std::string inserted_id;
  {
    util::MutexLock lock(mu_);
    inserted_id = entry->short_id;
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    lru_.emplace_front(key, std::shared_ptr<const CachedPlan>(std::move(entry)));
    index_[lru_.front().first] = lru_.begin();
    if (index_.size() > opts_.capacity) {
      evicted_id = lru_.back().second->short_id;
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
    PublishGauges(index_.size(), hits_, misses_);
  }
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("cache.insert").Str("template", inserted_id));
  }
  if (!evicted_id.empty()) {
    m_evictions_->Add();
    if (log.active()) {
      log.Emit(obs::Event("cache.evict").Str("template", evicted_id));
    }
  }
}

void PlanCache::NoteBypass() {
  {
    util::MutexLock lock(mu_);
    ++bypasses_;
  }
  m_bypasses_->Add();
}

size_t PlanCache::RecordFeedback(
    uint64_t template_hash, const std::vector<FeedbackStore::Sample>& samples) {
  if (!opts_.learn) return 0;
  const size_t published = feedback_.Record(template_hash, samples);
  if (published > 0) {
    {
      util::MutexLock lock(mu_);
      corrections_ += published;
    }
    m_corrections_->Add(published);
    obs::EventLog& log = obs::EventLog::Global();
    if (log.active()) {
      char id[20];
      std::snprintf(id, sizeof(id), "t:%016llx",
                    static_cast<unsigned long long>(template_hash));
      log.Emit(obs::Event("cache.correction")
                   .Str("template", id)
                   .Uint("published", published));
    }
  }
  return published;
}

size_t PlanCache::size() const {
  util::MutexLock lock(mu_);
  return index_.size();
}

PlanCache::StatsSnapshot PlanCache::stats() const {
  StatsSnapshot s;
  {
    util::MutexLock lock(mu_);
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.invalidations = invalidations_;
    s.bypasses = bypasses_;
    s.corrections = corrections_;
    s.size = index_.size();
  }
  s.capacity = opts_.capacity;
  const uint64_t lookups = s.hits + s.misses;
  s.hit_rate = lookups == 0
                   ? 0.0
                   : static_cast<double>(s.hits) / static_cast<double>(lookups);
  return s;
}

namespace {

template <typename T>
void PermuteByPattern(const std::vector<T>& in,
                      const std::vector<uint32_t>& to_out,
                      std::vector<T>* out) {
  // `out` is a copy of `in` (same size), permuted in place to avoid a
  // second allocation on the cache-hit path.
  for (size_t i = 0; i < in.size() && i < to_out.size(); ++i) {
    (*out)[to_out[i]] = in[i];
  }
}

opt::Plan TranslatePlan(const opt::Plan& plan,
                        const std::vector<uint32_t>& pattern_map) {
  opt::Plan out = plan;
  for (uint32_t& tp : out.order) tp = pattern_map[tp];
  PermuteByPattern(plan.tp_estimates, pattern_map, &out.tp_estimates);
  PermuteByPattern(plan.correction_factors, pattern_map,
                   &out.correction_factors);
  return out;
}

phys::PhysicalPlan TranslatePhys(const phys::PhysicalPlan& plan,
                                 const std::vector<uint32_t>& pattern_map,
                                 const std::vector<sparql::VarId>& var_map) {
  phys::PhysicalPlan out = plan;
  for (phys::PhysicalStep& step : out.steps) {
    step.pattern = pattern_map[step.pattern];
    if (step.join_pos >= 0 && step.join_var < var_map.size()) {
      step.join_var = var_map[step.join_var];
    }
  }
  return out;
}

}  // namespace

opt::Plan PlanToCanonical(const opt::Plan& plan, const CanonicalTemplate& t) {
  return TranslatePlan(plan, t.instance_to_canon);
}

opt::Plan PlanToInstance(const opt::Plan& plan, const CanonicalTemplate& t) {
  return TranslatePlan(plan, t.canon_to_instance);
}

phys::PhysicalPlan PhysToCanonical(const phys::PhysicalPlan& plan,
                                   const CanonicalTemplate& t) {
  return TranslatePhys(plan, t.instance_to_canon, t.var_instance_to_canon);
}

phys::PhysicalPlan PhysToInstance(const phys::PhysicalPlan& plan,
                                  const CanonicalTemplate& t) {
  return TranslatePhys(plan, t.canon_to_instance, t.var_canon_to_instance);
}

}  // namespace shapestats::cache
