#include "cache/feedback_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace shapestats::cache {

size_t FeedbackStore::Record(uint64_t template_hash,
                             const std::vector<Sample>& samples) {
  size_t published = 0;
  util::MutexLock lock(mu_);
  for (const Sample& s : samples) {
    if (!(s.ratio > 0) || !std::isfinite(s.ratio)) continue;
    Entry& e = entries_[Key{template_hash, s.canon_pattern}];
    e.n += 1;
    e.sum_log += std::log(s.ratio);
    // Re-publications need exponentially more fresh evidence than the
    // first one (capped at 1024x) so a template whose two candidate plans
    // keep trading places settles instead of thrashing the cache.
    const uint64_t needed = uint64_t{kMinObservations}
                            << std::min<uint32_t>(e.publish_count, 10);
    if (e.n < needed) continue;
    double candidate = std::exp(e.sum_log / static_cast<double>(e.n));
    candidate = std::clamp(candidate, 1.0 / kMaxFactor, kMaxFactor);
    const double drift = candidate > e.published ? candidate / e.published
                                                 : e.published / candidate;
    if (drift < kInvalidateRatio) continue;
    e.published = candidate;
    e.has_published = true;
    e.publish_count += 1;
    // The new factor may change the plan, making ratios observed under the
    // old plan meaningless for the new one: start the evidence over.
    e.n = 0;
    e.sum_log = 0;
    versions_[template_hash] += 1;
    published_ += 1;
    ++published;
  }
  return published;
}

double FeedbackStore::Factor(uint64_t template_hash,
                             uint32_t canon_pattern) const {
  util::MutexLock lock(mu_);
  auto it = entries_.find(Key{template_hash, canon_pattern});
  return it == entries_.end() ? 1.0 : it->second.published;
}

std::vector<double> FeedbackStore::Factors(uint64_t template_hash,
                                           size_t num_patterns) const {
  std::vector<double> factors(num_patterns, 1.0);
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < num_patterns; ++i) {
    auto it = entries_.find(Key{template_hash, static_cast<uint32_t>(i)});
    if (it != entries_.end()) factors[i] = it->second.published;
  }
  return factors;
}

uint64_t FeedbackStore::Version(uint64_t template_hash) const {
  util::MutexLock lock(mu_);
  auto it = versions_.find(template_hash);
  return it == versions_.end() ? 0 : it->second;
}

size_t FeedbackStore::NumEntries() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

uint64_t FeedbackStore::NumPublished() const {
  util::MutexLock lock(mu_);
  return published_;
}

std::string FeedbackStore::ToTable() const {
  // Sorted copy so the dump is deterministic.
  std::map<std::pair<uint64_t, uint32_t>, Entry> sorted;
  {
    util::MutexLock lock(mu_);
    for (const auto& [k, e] : entries_) sorted[{k.tmpl, k.pattern}] = e;
  }
  std::string out =
      "template          pattern  obs  geo-mean  factor\n";
  char line[128];
  for (const auto& [k, e] : sorted) {
    const double geo =
        e.n == 0 ? e.published
                 : std::exp(e.sum_log / static_cast<double>(e.n));
    std::snprintf(line, sizeof(line),
                  "t:%016llx  tp%-5u  %-4llu %-9.3g %.3g%s\n",
                  static_cast<unsigned long long>(k.first), k.second,
                  static_cast<unsigned long long>(e.n), geo, e.published,
                  e.has_published ? "" : " (pending)");
    out += line;
  }
  if (sorted.empty()) out += "(no observations)\n";
  return out;
}

}  // namespace shapestats::cache
