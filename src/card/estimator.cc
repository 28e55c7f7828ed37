#include "card/estimator.h"

#include <algorithm>

namespace shapestats::card {

using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::VarId;

std::unordered_map<VarId, rdf::TermId> ComputeShapeAnchors(
    const EncodedBgp& bgp, const stats::GlobalStats& gs) {
  std::unordered_map<VarId, rdf::TermId> anchors;
  if (gs.rdf_type_id == rdf::kInvalidTermId) return anchors;
  for (const EncodedPattern& tp : bgp.patterns) {
    if (!tp.s.is_var() || !tp.p.is_bound() || !tp.o.is_bound()) continue;
    if (tp.p.id != gs.rdf_type_id) continue;
    auto it = anchors.find(tp.s.id);
    if (it == anchors.end()) {
      anchors.emplace(tp.s.id, tp.o.id);
    } else if (gs.ClassCount(tp.o.id) < gs.ClassCount(it->second)) {
      it->second = tp.o.id;  // keep the most selective class
    }
  }
  return anchors;
}

CardinalityEstimator::CardinalityEstimator(const stats::GlobalStats& gs,
                                           const shacl::ShapesGraph* shapes,
                                           const rdf::TermDictionary& dict,
                                           StatsMode mode)
    : gs_(gs), shapes_(shapes), dict_(dict), mode_(mode) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  estimates_global_ = reg.GetCounter("card.estimate_global");
  estimates_shape_ = reg.GetCounter("card.estimate_shape");
  shape_cache_hits_ = reg.GetCounter("card.shape_cache_hit");
  shape_cache_misses_ = reg.GetCounter("card.shape_cache_miss");
}

std::vector<TpEstimate> CardinalityEstimator::EstimateAll(
    const EncodedBgp& bgp) const {
  auto anchors = ComputeShapeAnchors(bgp, gs_);
  std::vector<TpEstimate> out;
  out.reserve(bgp.patterns.size());
  uint64_t global_n = 0, shape_n = 0;
  for (const EncodedPattern& tp : bgp.patterns) {
    out.push_back(EstimateDetailImpl(tp, anchors, &global_n, &shape_n).est);
  }
  if (global_n > 0) estimates_global_->Add(global_n);
  if (shape_n > 0) estimates_shape_->Add(shape_n);
  return out;
}

std::vector<TpEstimate> CardinalityEstimator::EstimateAllAnchored(
    const EncodedBgp& bgp,
    const std::unordered_map<VarId, rdf::TermId>& extra) const {
  auto anchors = ComputeShapeAnchors(bgp, gs_);
  for (const auto& [var, cls] : extra) {
    anchors.emplace(var, cls);  // explicit rdf:type anchors win
  }
  std::vector<TpEstimate> out;
  out.reserve(bgp.patterns.size());
  uint64_t global_n = 0, shape_n = 0;
  for (const EncodedPattern& tp : bgp.patterns) {
    out.push_back(EstimateDetailImpl(tp, anchors, &global_n, &shape_n).est);
  }
  if (global_n > 0) estimates_global_->Add(global_n);
  if (shape_n > 0) estimates_shape_->Add(shape_n);
  return out;
}

std::vector<TpEstimate> CardinalityEstimator::SeedEstimates(
    const EncodedBgp& bgp) const {
  std::vector<TpEstimate> out;
  out.reserve(bgp.patterns.size());
  for (const EncodedPattern& tp : bgp.patterns) {
    out.push_back(tp.HasMissingConstant() ? TpEstimate{0, 0, 0}
                                          : GlobalEstimate(tp));
  }
  return out;
}

TpEstimate CardinalityEstimator::EstimatePattern(
    const EncodedPattern& tp,
    const std::unordered_map<VarId, rdf::TermId>& anchors) const {
  return EstimatePatternDetailed(tp, anchors).est;
}

EstimateDetail CardinalityEstimator::EstimatePatternDetailed(
    const EncodedPattern& tp,
    const std::unordered_map<VarId, rdf::TermId>& anchors) const {
  uint64_t global_n = 0, shape_n = 0;
  EstimateDetail detail = EstimateDetailImpl(tp, anchors, &global_n, &shape_n);
  if (global_n > 0) estimates_global_->Add(global_n);
  if (shape_n > 0) estimates_shape_->Add(shape_n);
  return detail;
}

EstimateDetail CardinalityEstimator::EstimateDetailImpl(
    const EncodedPattern& tp,
    const std::unordered_map<VarId, rdf::TermId>& anchors,
    uint64_t* global_n, uint64_t* shape_n) const {
  EstimateDetail detail;
  if (tp.HasMissingConstant()) {
    detail.formula = "missing-constant";
    return detail;
  }
  if (mode_ == StatsMode::kShape) {
    if (auto shaped = ShapeEstimate(tp, anchors, &detail.formula)) {
      ++*shape_n;
      detail.est = *shaped;
      detail.source = "shape";
      return detail;
    }
  }
  ++*global_n;
  detail.est = GlobalEstimate(tp, &detail.formula);
  return detail;
}

std::vector<EstimateDetail> CardinalityEstimator::EstimateAllDetailed(
    const EncodedBgp& bgp,
    const std::unordered_map<VarId, rdf::TermId>* extra) const {
  auto anchors = ComputeShapeAnchors(bgp, gs_);
  if (extra != nullptr) {
    for (const auto& [var, cls] : *extra) anchors.emplace(var, cls);
  }
  std::vector<EstimateDetail> out;
  out.reserve(bgp.patterns.size());
  uint64_t global_n = 0, shape_n = 0;
  for (const EncodedPattern& tp : bgp.patterns) {
    out.push_back(EstimateDetailImpl(tp, anchors, &global_n, &shape_n));
  }
  if (global_n > 0) estimates_global_->Add(global_n);
  if (shape_n > 0) estimates_shape_->Add(shape_n);
  return out;
}

const shacl::NodeShape* CardinalityEstimator::FindShapeCached(
    rdf::TermId class_id) const {
  {
    util::MutexLock lock(cache_mu_);
    auto it = shape_cache_.find(class_id);
    if (it != shape_cache_.end()) {
      shape_cache_hits_->Add();
      return it->second;
    }
  }
  // Resolve outside the lock; two threads may race here, so re-check under
  // the second lock before counting: only the thread that actually inserts
  // records the miss (the loser's lookup was answered by the cache).
  const rdf::TermView cls = dict_.term(class_id);
  const shacl::NodeShape* ns =
      cls.is_iri() ? shapes_->FindByClass(cls.lexical) : nullptr;
  util::MutexLock lock(cache_mu_);
  auto [it, inserted] = shape_cache_.emplace(class_id, ns);
  if (inserted) {
    shape_cache_misses_->Add();
  } else {
    shape_cache_hits_->Add();
  }
  return it->second;
}

// Table 1: all eight binding combinations plus the four rdf:type special
// cases. DSC/DOC are filled per the conventions visible in Table 2: a bound
// position contributes 1; a position restricted by the estimate itself
// contributes the estimate.
TpEstimate CardinalityEstimator::GlobalEstimate(const EncodedPattern& tp,
                                                const char** formula) const {
  const char* ignored;
  const char** f = formula != nullptr ? formula : &ignored;
  const double T = static_cast<double>(gs_.num_triples);
  const double S_all = std::max<double>(1, gs_.num_distinct_subjects);
  const double O_all = std::max<double>(1, gs_.num_distinct_objects);
  const bool bs = tp.s.is_bound();
  const bool bp = tp.p.is_bound();
  const bool bo = tp.o.is_bound();

  if (bp && gs_.rdf_type_id != rdf::kInvalidTermId && tp.p.id == gs_.rdf_type_id) {
    const double c_type = static_cast<double>(gs_.num_type_triples);
    const double type_dsc = std::max<double>(1, gs_.num_type_subjects);
    if (!bs && bo) {
      // <?s rdf:type obj>: c_{entities of type obj}.
      *f = "type-class-count";
      double card = static_cast<double>(gs_.ClassCount(tp.o.id));
      return {card, card, card};
    }
    if (!bs && !bo) {
      // <?s rdf:type ?o>: c_{rdf:type}.
      *f = "type-scan";
      return {c_type, type_dsc, static_cast<double>(gs_.num_distinct_classes)};
    }
    if (bs && bo) {
      *f = "type-lookup";
      return {1, 1, 1};  // "1 or 0"; optimistically 1
    }
    // <subj rdf:type ?o>: types per entity.
    *f = "types-per-entity";
    return {c_type / type_dsc, 1, c_type / type_dsc};
  }

  if (bp) {
    const stats::PredicateStats* ps = gs_.Predicate(tp.p.id);
    if (ps == nullptr) {
      *f = "unknown-predicate";
      return {0, 0, 0};
    }
    const double c_pred = static_cast<double>(ps->count);
    const double dsc = std::max<double>(1, ps->dsc);
    const double doc = std::max<double>(1, ps->doc);
    if (!bs && !bo) {
      *f = "pred-scan";
      return {c_pred, dsc, doc};                         // <?s pred ?o>
    }
    if (!bs && bo) {
      *f = "pred-obj-bound";
      double card = c_pred / doc;                        // <?s pred obj>
      return {card, card, 1};
    }
    if (bs && !bo) {
      *f = "pred-subj-bound";
      double card = c_pred / dsc;                        // <subj pred ?o>
      return {card, 1, card};
    }
    *f = "pred-lookup";
    return {c_pred / (dsc * doc), 1, 1};                 // <subj pred obj>
  }

  // Variable predicate.
  if (!bs && !bo) {
    *f = "full-scan";
    return {T, S_all, O_all};                            // <?s ?p ?o>
  }
  if (!bs && bo) {
    *f = "obj-bound";
    double card = T / O_all;                             // <?s ?p obj>
    return {card, card, 1};
  }
  if (bs && !bo) {
    *f = "subj-bound";
    double card = T / S_all;                             // <subj ?p ?o>
    return {card, 1, card};
  }
  *f = "subj-obj-bound";
  return {T / (S_all * O_all), 1, 1};                    // <subj ?p obj>
}

// Section 6.1: shape-based refinement. Returns nullopt when the pattern is
// not anchored to an annotated shape, in which case the caller falls back
// to the global formulas.
std::optional<TpEstimate> CardinalityEstimator::ShapeEstimate(
    const EncodedPattern& tp,
    const std::unordered_map<VarId, rdf::TermId>& anchors,
    const char** formula) const {
  const char* ignored;
  const char** f = formula != nullptr ? formula : &ignored;
  if (shapes_ == nullptr) return std::nullopt;
  const bool bp = tp.p.is_bound();
  if (!bp || !tp.s.is_var()) return std::nullopt;

  // Case 1: the type pattern itself — use the node shape count.
  if (gs_.rdf_type_id != rdf::kInvalidTermId && tp.p.id == gs_.rdf_type_id &&
      tp.o.is_bound()) {
    const shacl::NodeShape* ns = FindShapeCached(tp.o.id);
    if (ns == nullptr || !ns->annotated()) return std::nullopt;
    *f = "node-shape-count";
    double card = static_cast<double>(*ns->count);
    return TpEstimate{card, card, card};
  }

  // Case 2: subject variable anchored to a class with a matching property
  // shape.
  auto anchor = anchors.find(tp.s.id);
  if (anchor == anchors.end()) return std::nullopt;
  const rdf::TermView pred = dict_.term(tp.p.id);
  if (!pred.is_iri()) return std::nullopt;
  const shacl::NodeShape* ns = FindShapeCached(anchor->second);
  if (ns == nullptr || !ns->annotated()) return std::nullopt;
  const shacl::PropertyShape* ps = ns->FindProperty(pred.lexical);
  if (ps == nullptr || !ps->annotated()) return std::nullopt;

  const double count = static_cast<double>(*ps->count);
  const double distinct = std::max<double>(1, *ps->distinct_count);
  // Distinct subjects of the class having this predicate: every instance if
  // minCount >= 1; otherwise bounded by both the instance count and the
  // triple count.
  double dsc = (ps->min_count && *ps->min_count >= 1)
                   ? static_cast<double>(*ns->count)
                   : std::min<double>(static_cast<double>(*ns->count), count);
  dsc = std::max(dsc, 1.0);

  if (tp.o.is_var()) {
    *f = "property-shape-scan";
    // DOC clamped like every other divisor feeding Eq. 1-3: an
    // annotated-but-empty property shape (count = distinctCount = 0) must
    // not contribute a zero max(distinct) denominator to the SS/SO/OO
    // join formulas.
    return TpEstimate{count, dsc, distinct};
  }
  *f = "property-shape-obj-bound";
  double card = count / distinct;  // <?x pred obj> restricted to the class
  return TpEstimate{card, card, 1};
}

}  // namespace shapestats::card
