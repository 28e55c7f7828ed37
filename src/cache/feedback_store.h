// Feedback store: folds observed per-step cardinality truths back into
// estimation. For each (template, canonical pattern) the store accumulates
// observed/estimated ratios — always expressed against the *uncorrected*
// estimate, so samples taken under an already-applied correction compose
// instead of oscillating — and publishes a learned adjustment factor once
// enough observations agree (geometric mean over a confidence floor).
//
// Publication is deliberately sticky: a factor only moves when the
// candidate differs from the published value by kInvalidateRatio or
// more. Every publication bumps the template's feedback version, which the
// plan cache compares on lookup to force a re-plan under the corrected
// estimates (the adjustment may flip the join order or operator choice).
//
// A publication also resets the entry's accumulator: a changed factor can
// change the plan, and per-step ratios observed under the old plan do not
// describe the new one, so each published regime starts its evidence from
// scratch. Re-publications additionally back off exponentially (the k-th
// needs kMinObservations * 2^k fresh samples, capped), which bounds the
// invalidation rate even if two plans keep trading places.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace shapestats::cache {

class FeedbackStore {
 public:
  /// Observations per (template, pattern) before a factor may publish.
  static constexpr uint32_t kMinObservations = 3;
  /// Published factors are clamped to [1/kMaxFactor, kMaxFactor].
  static constexpr double kMaxFactor = 1024.0;
  /// Publish only when candidate/published (or its inverse) reaches this.
  static constexpr double kInvalidateRatio = 1.25;

  /// One observation: the canonical pattern blamed and the total
  /// observed/estimated ratio relative to the *uncorrected* estimate.
  struct Sample {
    uint32_t canon_pattern = 0;
    double ratio = 1.0;
  };

  /// Folds one executed query's samples in. Returns the number of factors
  /// (re)published — each publication bumped the template's version.
  size_t Record(uint64_t template_hash, const std::vector<Sample>& samples);

  /// Published factor for one canonical pattern (1.0 until confident).
  double Factor(uint64_t template_hash, uint32_t canon_pattern) const;

  /// Published factors for canonical patterns [0, num_patterns).
  std::vector<double> Factors(uint64_t template_hash,
                              size_t num_patterns) const;

  /// Monotone per-template version; bumped on every publication. A cached
  /// plan built at version v is stale once Version() > v.
  uint64_t Version(uint64_t template_hash) const;

  /// Number of (template, pattern) entries with at least one observation.
  size_t NumEntries() const;
  /// Total factors ever published (including re-publications).
  uint64_t NumPublished() const;

  /// Human-readable dump for the shell (.cache): one line per entry with
  /// observations, geometric-mean ratio, and the published factor.
  std::string ToTable() const;

 private:
  struct Entry {
    uint64_t n = 0;           // observations since the last publication
    double sum_log = 0;       // sum of log(observed ratio) since then
    double published = 1.0;   // factor currently in force
    bool has_published = false;
    uint32_t publish_count = 0;  // drives the re-publication backoff
  };
  struct Key {
    uint64_t tmpl;
    uint32_t pattern;
    bool operator==(const Key& o) const {
      return tmpl == o.tmpl && pattern == o.pattern;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.tmpl ^ (0x9e3779b97f4a7c15ull * (k.pattern + 1));
      h ^= h >> 33;
      return static_cast<size_t>(h * 0xff51afd7ed558ccdull);
    }
  };

  mutable util::Mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_ SHAPESTATS_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, uint64_t> versions_ SHAPESTATS_GUARDED_BY(mu_);
  uint64_t published_ SHAPESTATS_GUARDED_BY(mu_) = 0;
};

}  // namespace shapestats::cache
