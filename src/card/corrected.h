// Feedback-corrected statistics provider: wraps any PlannerStatsProvider
// and scales its per-pattern cardinalities by learned adjustment factors
// (cache::FeedbackStore publications, keyed per canonicalized template
// pattern and mapped to instance pattern positions by the caller).
//
// Only `card` is scaled directly. DSC/DOC stay at the base estimate —
// scaling them by the same factor would cancel the correction inside
// Equations 1-3 whenever the corrected pattern's own distinct count is the
// max denominator — except that both are capped at the corrected
// cardinality when it shrinks (a pattern cannot have more distinct
// subjects/objects than rows). The provider keeps the wrapped provider's
// name so AccuracyLedger populations stay comparable across corrected and
// uncorrected executions of the same optimizer.
#pragma once

#include <vector>

#include "card/provider.h"

namespace shapestats::card {

class CorrectedProvider : public PlannerStatsProvider {
 public:
  /// `factors[i]` multiplies the cardinality of instance pattern `i`.
  /// Both references must outlive the provider (it is built on the stack
  /// around one planning call).
  CorrectedProvider(const PlannerStatsProvider& base,
                    std::vector<double> factors)
      : base_(base), factors_(std::move(factors)) {}

  std::string name() const override { return base_.name(); }

  std::vector<TpEstimate> EstimateAll(
      const sparql::EncodedBgp& bgp) const override {
    return Correct(base_.EstimateAll(bgp));
  }

  /// Seed estimates are corrected too: the learned factor should be able
  /// to change which pattern opens the plan, not just the join steps.
  std::vector<TpEstimate> SeedEstimates(
      const sparql::EncodedBgp& bgp) const override {
    return Correct(base_.SeedEstimates(bgp));
  }

  double EstimateJoin(const sparql::EncodedPattern& a, const TpEstimate& ea,
                      const sparql::EncodedPattern& b,
                      const TpEstimate& eb) const override {
    return base_.EstimateJoin(a, ea, b, eb);
  }

  double EstimateResultCardinality(
      const sparql::EncodedBgp& bgp) const override {
    return base_.EstimateResultCardinality(bgp);
  }

  const std::vector<double>& factors() const { return factors_; }

 private:
  std::vector<TpEstimate> Correct(std::vector<TpEstimate> est) const;

  const PlannerStatsProvider& base_;
  std::vector<double> factors_;
};

}  // namespace shapestats::card
