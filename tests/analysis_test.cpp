// Unit tests for src/analysis: StatsAuditor over deliberately corrupted
// statistics (each mutation fires exactly one rule), PlanVerifier over
// hand-corrupted plans, QueryLint and the ShapeChecker over degenerate
// BGPs, the executors over hand-built degenerate queries, and concurrency
// regressions for the metrics registry and the estimator's shape cache.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/plan_verify.h"
#include "analysis/query_lint.h"
#include "analysis/shape_check.h"
#include "analysis/stats_audit.h"
#include "card/estimator.h"
#include "engine/query_engine.h"
#include "exec/select_executor.h"
#include "obs/metrics.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/planner.h"
#include "rdf/turtle.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "sparql/parser.h"
#include "stats/annotator.h"

namespace shapestats::analysis {
namespace {

using sparql::EncodedBgp;

// Data with precisely known statistics:
//   8 triples; rdf:type: count 4, dsc 4, doc 2.
//   class C: 2 instances (a, b); class D: 2 instances (d, e).
//   ex:p: count 3 (a has 2, b has 1), dsc 2, doc 2 (o1, o2);
//     within C: count 3, distinct 2, min 1, max 2.
//   ex:q: count 1, dsc 1, doc 1; within D: count 1, distinct 1, min 0
//     (ex:e lacks q), max 1.
constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
ex:a a ex:C ; ex:p ex:o1, ex:o2 .
ex:b a ex:C ; ex:p ex:o1 .
ex:d a ex:D ; ex:q "lit" .
ex:e a ex:D .
)";

class AnalysisFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kData, &graph_).ok());
    graph_.Finalize();
    gs_ = stats::GlobalStats::Compute(graph_);
    auto shapes = shacl::GenerateShapes(graph_);
    ASSERT_TRUE(shapes.ok());
    shapes_ = std::move(shapes).value();
    ASSERT_TRUE(stats::AnnotateShapes(graph_, &shapes_).ok());
  }

  EncodedBgp Encode(const std::string& body) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE {" +
                                body + "}");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return sparql::EncodeBgp(*q, graph_.dict());
  }

  /// Runs QueryLint on a SELECT * over `body` (prefix added).
  Diagnostics LintBody(const std::string& body) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE {" +
                                body + "}");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return QueryLint(gs_, graph_.dict())
        .Lint(*q, sparql::EncodeBgp(*q, graph_.dict()));
  }

  /// Runs the ShapeChecker on a full query (prefix added), with this
  /// fixture's annotated shapes unless `with_shapes` is false.
  ShapeCheckResult CheckQuery(const std::string& query_text,
                              bool with_shapes = true) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\n" + query_text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    EncodedBgp bgp = sparql::EncodeBgp(*q, graph_.dict());
    return ShapeChecker(gs_, with_shapes ? &shapes_ : nullptr, graph_.dict())
        .Check(*q, bgp);
  }

  rdf::TermId Pred(const char* iri) {
    auto id = graph_.dict().FindIri(iri);
    EXPECT_TRUE(id.has_value()) << iri;
    return *id;
  }

  // Mutates one shape field, round-trips the shapes graph through its
  // Turtle serialization (the corrupted statistics now live in a "file"),
  // and audits what was read back.
  Diagnostics AuditMutatedShapes(
      const std::function<void(shacl::ShapesGraph*)>& mutate) {
    shacl::ShapesGraph corrupted = shapes_;
    mutate(&corrupted);
    auto round_tripped = shacl::ReadShapesTurtle(WriteShapesTurtle(corrupted));
    EXPECT_TRUE(round_tripped.ok()) << round_tripped.status().ToString();
    return StatsAuditor().AuditShapes(*round_tripped, gs_, &graph_.dict());
  }

  static shacl::NodeShape* FindShape(shacl::ShapesGraph* shapes,
                                     std::string_view cls) {
    for (auto& ns : *shapes->mutable_shapes()) {
      if (ns.target_class == cls) return &ns;
    }
    return nullptr;
  }

  static shacl::PropertyShape* FindProp(shacl::ShapesGraph* shapes,
                                        std::string_view cls,
                                        std::string_view path) {
    shacl::NodeShape* ns = FindShape(shapes, cls);
    if (ns == nullptr) return nullptr;
    for (auto& ps : ns->properties) {
      if (ps.path == path) return &ps;
    }
    return nullptr;
  }

  rdf::Graph graph_;
  stats::GlobalStats gs_;
  shacl::ShapesGraph shapes_;
};

// --- StatsAuditor: clean statistics produce no findings ---

TEST_F(AnalysisFixture, CleanStatisticsAuditEmpty) {
  auto diags = StatsAuditor().AuditAll(gs_, shapes_, &graph_.dict());
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

TEST_F(AnalysisFixture, CleanAuditWithoutDictionarySkipsLookupRules) {
  auto diags = StatsAuditor().AuditShapes(shapes_, gs_, nullptr);
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

// --- StatsAuditor: global-statistics corruptions, one rule each ---

TEST_F(AnalysisFixture, GlobalDscGreaterThanCount) {
  stats::GlobalStats gs = gs_;
  auto& ps = gs.by_predicate[Pred("http://ex/p")];
  ps.dsc = ps.count + 1;
  auto diags = StatsAuditor().AuditGlobal(gs, &graph_.dict());
  EXPECT_EQ(CountRule(diags, "global.dsc-gt-count"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
  EXPECT_TRUE(HasErrors(diags));
}

TEST_F(AnalysisFixture, GlobalDocGreaterThanCount) {
  stats::GlobalStats gs = gs_;
  auto& ps = gs.by_predicate[Pred("http://ex/q")];
  ps.doc = ps.count + 1;
  auto diags = StatsAuditor().AuditGlobal(gs, &graph_.dict());
  EXPECT_EQ(CountRule(diags, "global.doc-gt-count"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, GlobalPredicateCountExceedsTriples) {
  stats::GlobalStats gs = gs_;
  gs.by_predicate[Pred("http://ex/q")].count = gs.num_triples + 5;
  auto diags = StatsAuditor().AuditGlobal(gs, &graph_.dict());
  EXPECT_EQ(CountRule(diags, "global.pred-count-gt-triples"), 1u)
      << ToText(diags);
  // The per-predicate sum rule necessarily fires too.
  EXPECT_EQ(CountRule(diags, "global.pred-count-sum"), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, GlobalPredicateSumMismatch) {
  stats::GlobalStats gs = gs_;
  gs.num_triples += 1;
  auto diags = StatsAuditor().AuditGlobal(gs, &graph_.dict());
  EXPECT_EQ(CountRule(diags, "global.pred-count-sum"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, GlobalTypeInconsistent) {
  stats::GlobalStats gs = gs_;
  gs.num_type_subjects = gs.num_type_triples + 1;
  auto diags = StatsAuditor().AuditGlobal(gs, &graph_.dict());
  EXPECT_EQ(CountRule(diags, "global.type-inconsistent"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

// --- StatsAuditor: shape corruptions, round-tripped through Turtle ---

TEST_F(AnalysisFixture, ShapeDistinctGreaterThanCount) {
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ps = FindProp(s, "http://ex/C", "http://ex/p");
    ASSERT_NE(ps, nullptr);
    ps->distinct_count = *ps->count + 1;
  });
  EXPECT_EQ(CountRule(diags, "shape.distinct-gt-count"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
  EXPECT_TRUE(HasErrors(diags));
}

TEST_F(AnalysisFixture, ShapeZeroDistinctWithPositiveCount) {
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ps = FindProp(s, "http://ex/C", "http://ex/p");
    ASSERT_NE(ps, nullptr);
    ps->distinct_count = 0;  // count stays 3: the Eq. 1-3 divisor poison
  });
  EXPECT_EQ(CountRule(diags, "shape.zero-distinct"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, ShapeMinCountViolation) {
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ps = FindProp(s, "http://ex/C", "http://ex/p");
    ASSERT_NE(ps, nullptr);
    ps->min_count = 2;  // 2 per instance * 2 instances = 4 > count 3
  });
  EXPECT_EQ(CountRule(diags, "shape.min-count-violation"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, ShapeMaxCountViolation) {
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ps = FindProp(s, "http://ex/C", "http://ex/p");
    ASSERT_NE(ps, nullptr);
    ps->max_count = 1;  // count 3 > 1 per instance * 2 instances
  });
  EXPECT_EQ(CountRule(diags, "shape.max-count-violation"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, ShapeNodeCountExceedsClassCount) {
  // D's only property has min_count 0 (ex:e lacks ex:q), so inflating the
  // node count violates no per-property bound — only the class containment.
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ns = FindShape(s, "http://ex/D");
    ASSERT_NE(ns, nullptr);
    ns->count = 3;  // class D has 2 instances globally
  });
  EXPECT_EQ(CountRule(diags, "shape.node-count-gt-class"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, ShapePropertyCountExceedsGlobal) {
  // 4 stays within minCount/maxCount bounds (1*2 <= 4 <= 2*2) but exceeds
  // ex:p's global triple count of 3.
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ps = FindProp(s, "http://ex/C", "http://ex/p");
    ASSERT_NE(ps, nullptr);
    ps->count = 4;
  });
  EXPECT_EQ(CountRule(diags, "shape.prop-count-gt-global"), 1u)
      << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(AnalysisFixture, ShapeUnannotatedIsWarning) {
  auto diags = AuditMutatedShapes([](shacl::ShapesGraph* s) {
    auto* ps = FindProp(s, "http://ex/D", "http://ex/q");
    ASSERT_NE(ps, nullptr);
    ps->count.reset();  // stripped statistics survive the Turtle round trip
  });
  EXPECT_EQ(CountRule(diags, "shape.unannotated"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
  EXPECT_FALSE(HasErrors(diags));
  EXPECT_EQ(CountSeverity(diags, Severity::kWarning), 1u);
}

// --- diagnostics rendering ---

TEST_F(AnalysisFixture, DiagnosticsRenderAsTextAndJson) {
  Diagnostics diags{{Severity::kError, "shape.distinct-gt-count",
                     "http://ex/C", "distinct 4 > count \"3\""}};
  std::string text = ToText(diags);
  EXPECT_NE(text.find("error [shape.distinct-gt-count]"), std::string::npos)
      << text;
  std::string json = ToJson(diags);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"shape.distinct-gt-count\""),
            std::string::npos)
      << json;
  // The quote inside the detail must be escaped.
  EXPECT_NE(json.find("\\\"3\\\""), std::string::npos) << json;
}

// --- PlanVerifier ---

class PlanVerifierFixture : public AnalysisFixture {
 protected:
  // A valid two-pattern plan from the real planner.
  void MakePlan(const std::string& body) {
    bgp_ = Encode(body);
    est_ = std::make_unique<card::CardinalityEstimator>(
        gs_, nullptr, graph_.dict(), card::StatsMode::kGlobal);
    plan_ = opt::PlanJoinOrder(bgp_, *est_);
  }

  EncodedBgp bgp_;
  std::unique_ptr<card::CardinalityEstimator> est_;
  opt::Plan plan_;
};

TEST_F(PlanVerifierFixture, ValidPlanPasses) {
  MakePlan("?x a ex:C . ?x ex:p ?y");
  auto diags = PlanVerifier().Verify(plan_, bgp_);
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

TEST_F(PlanVerifierFixture, OrderSizeMismatch) {
  MakePlan("?x a ex:C . ?x ex:p ?y");
  plan_.order.pop_back();
  auto diags = PlanVerifier().Verify(plan_, bgp_);
  EXPECT_EQ(CountRule(diags, "plan.order-size"), 1u) << ToText(diags);
}

TEST_F(PlanVerifierFixture, DuplicateOrderIndex) {
  MakePlan("?x a ex:C . ?x ex:p ?y");
  plan_.order[1] = plan_.order[0];
  auto diags = PlanVerifier().Verify(plan_, bgp_);
  EXPECT_EQ(CountRule(diags, "plan.order-not-permutation"), 1u)
      << ToText(diags);
}

TEST_F(PlanVerifierFixture, DisconnectedStepWithoutCartesianFlag) {
  MakePlan("?x ex:p ?y . ?a ex:q ?b");  // no shared variables
  ASSERT_TRUE(plan_.has_cartesian);     // planner flags it honestly
  auto honest = PlanVerifier().Verify(plan_, bgp_);
  EXPECT_TRUE(honest.empty()) << ToText(honest);

  plan_.has_cartesian = false;  // a planner that lies about connectivity
  auto diags = PlanVerifier().Verify(plan_, bgp_);
  EXPECT_EQ(CountRule(diags, "plan.disconnected-step"), 1u) << ToText(diags);
}

TEST_F(PlanVerifierFixture, NonFiniteAndNegativeEstimates) {
  MakePlan("?x a ex:C . ?x ex:p ?y");
  opt::Plan nan_plan = plan_;
  nan_plan.step_estimates[1] = std::nan("");
  auto diags = PlanVerifier().Verify(nan_plan, bgp_);
  EXPECT_GE(CountRule(diags, "plan.nonfinite-estimate"), 1u) << ToText(diags);

  opt::Plan neg_plan = plan_;
  neg_plan.step_estimates[0] = -1.0;
  neg_plan.total_cost = neg_plan.step_estimates[0] + neg_plan.step_estimates[1];
  diags = PlanVerifier().Verify(neg_plan, bgp_);
  EXPECT_EQ(CountRule(diags, "plan.nonfinite-estimate"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

TEST_F(PlanVerifierFixture, TotalCostMismatch) {
  MakePlan("?x a ex:C . ?x ex:p ?y");
  plan_.total_cost += 10.0;
  auto diags = PlanVerifier().Verify(plan_, bgp_);
  EXPECT_EQ(CountRule(diags, "plan.cost-mismatch"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

// --- QueryLint: the Cartesian-product rule; emptiness belongs to check.* ---

TEST_F(AnalysisFixture, LintCleanQuery) {
  auto diags = LintBody("?x a ex:C . ?x ex:p ?y");
  EXPECT_TRUE(diags.empty()) << ToText(diags);
}

TEST_F(AnalysisFixture, LintMissingConstant) {
  // The emptiness fact has one owner: lint stays silent, the checker
  // reports it once.
  auto diags = LintBody("?x ex:ghost ?y");
  EXPECT_TRUE(diags.empty()) << ToText(diags);
  auto r = CheckQuery("SELECT * WHERE { ?x ex:ghost ?y }");
  EXPECT_EQ(CountRule(r.diagnostics, "check.missing-constant"), 1u)
      << ToText(r.diagnostics);
  EXPECT_EQ(r.diagnostics.size(), 1u) << ToText(r.diagnostics);
  EXPECT_FALSE(HasErrors(r.diagnostics));  // findings never block execution
}

TEST_F(AnalysisFixture, LintUnknownPredicate) {
  // ex:o1 is in the dictionary (as an object) but never a predicate.
  EXPECT_TRUE(LintBody("?x ex:o1 ?y").empty());
  auto r = CheckQuery("SELECT * WHERE { ?x ex:o1 ?y }");
  EXPECT_EQ(CountRule(r.diagnostics, "check.unknown-predicate"), 1u)
      << ToText(r.diagnostics);
  EXPECT_EQ(r.diagnostics.size(), 1u) << ToText(r.diagnostics);

  // A hand-written shapes graph naming the predicate does not hide the
  // finding: with no data triple the pattern is empty whatever the shapes
  // say.
  shacl::ShapesGraph hand;
  shacl::NodeShape ns;
  ns.iri = "http://ex/CShape";
  ns.target_class = "http://ex/C";
  ns.properties.push_back({});
  ns.properties.back().path = "http://ex/o1";
  ASSERT_TRUE(hand.Add(std::move(ns)).ok());
  auto q = sparql::ParseQuery(
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:o1 ?y }");
  ASSERT_TRUE(q.ok());
  auto named = ShapeChecker(gs_, &hand, graph_.dict())
                   .Check(*q, sparql::EncodeBgp(*q, graph_.dict()));
  EXPECT_EQ(named.verdict, Satisfiability::kEmpty);
  EXPECT_EQ(CountRule(named.diagnostics, "check.unknown-predicate"), 1u)
      << ToText(named.diagnostics);
}

TEST_F(AnalysisFixture, LintUnknownClass) {
  // ex:o1 is in the dictionary but has no instances as a class.
  EXPECT_TRUE(LintBody("?x a ex:o1").empty());
  auto r = CheckQuery("SELECT * WHERE { ?x a ex:o1 }");
  EXPECT_EQ(CountRule(r.diagnostics, "check.empty-class"), 1u)
      << ToText(r.diagnostics);
  EXPECT_EQ(r.diagnostics.size(), 1u) << ToText(r.diagnostics);
}

TEST_F(AnalysisFixture, LintCartesianProduct) {
  auto diags = LintBody("?x ex:p ?y . ?a ex:q ?b");
  EXPECT_EQ(CountRule(diags, "query.cartesian"), 1u) << ToText(diags);
  EXPECT_EQ(diags.size(), 1u) << ToText(diags);
}

// --- ShapeChecker: satisfiability verdicts, one rule each ---

TEST_F(AnalysisFixture, CheckSatisfiableQueryIsClean) {
  auto r = CheckQuery("SELECT * WHERE { ?x a ex:C . ?x ex:p ?y }");
  EXPECT_EQ(r.verdict, Satisfiability::kSatisfiable);
  EXPECT_TRUE(r.rule.empty());
  EXPECT_FALSE(r.provably_empty());
  EXPECT_TRUE(r.diagnostics.empty()) << ToText(r.diagnostics);
}

TEST_F(AnalysisFixture, CheckMissingConstantIsEmpty) {
  auto r = CheckQuery("SELECT * WHERE { ?x ex:nosuch ?y }");
  EXPECT_EQ(r.verdict, Satisfiability::kEmpty);
  EXPECT_EQ(r.rule, "check.missing-constant");
  EXPECT_EQ(CountRule(r.diagnostics, "check.missing-constant"), 1u)
      << ToText(r.diagnostics);
}

TEST_F(AnalysisFixture, CheckUnknownPredicateIsEmpty) {
  // ex:o1 is in the dictionary (as an object) but is no predicate and no
  // property shape path.
  auto r = CheckQuery("SELECT * WHERE { ?x ex:o1 ?y }");
  EXPECT_EQ(r.verdict, Satisfiability::kEmpty);
  EXPECT_EQ(r.rule, "check.unknown-predicate");
}

TEST_F(AnalysisFixture, CheckEmptyClassIsEmptyByStats) {
  // ex:o1 exists in the dictionary but no entity is typed ex:o1.
  auto r = CheckQuery("SELECT * WHERE { ?x a ex:o1 }");
  EXPECT_EQ(r.verdict, Satisfiability::kEmptyByStats);
  EXPECT_EQ(r.rule, "check.empty-class");
}

TEST_F(AnalysisFixture, CheckDisjointClassesIsEmptyByStats) {
  // Every typed entity in kData has exactly one type, so C and D have
  // provably disjoint instance sets.
  auto r = CheckQuery("SELECT * WHERE { ?x a ex:C . ?x a ex:D }");
  EXPECT_EQ(r.verdict, Satisfiability::kEmptyByStats);
  EXPECT_EQ(r.rule, "check.disjoint-classes");
}

TEST_F(AnalysisFixture, CheckMaxCountConflictGlobalProof) {
  // ex:q has count == DSC == 1: every subject carries exactly one q-triple,
  // so forcing two distinct constant objects through it is unsatisfiable.
  auto r = CheckQuery("SELECT * WHERE { ?x ex:q ex:o1 . ?x ex:q ex:o2 }");
  EXPECT_EQ(r.verdict, Satisfiability::kEmptyByStats);
  EXPECT_EQ(r.rule, "check.max-count-conflict");
  // The proof needs no shapes — it holds in global-statistics mode too.
  auto global_only =
      CheckQuery("SELECT * WHERE { ?x ex:q ex:o1 . ?x ex:q ex:o2 }",
                 /*with_shapes=*/false);
  EXPECT_EQ(global_only.verdict, Satisfiability::kEmptyByStats);
  EXPECT_EQ(global_only.rule, "check.max-count-conflict");
}

TEST_F(AnalysisFixture, CheckMaxCountConflictShapeProof) {
  // Data where the global proof fails (ex:p count 4, DSC 3) but class C's
  // property shape observed sh:maxCount 1 — the anchored subject still
  // cannot have two distinct ex:p objects.
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(R"(
    @prefix ex: <http://ex/> .
    ex:a a ex:C ; ex:p ex:o1 .
    ex:b a ex:C ; ex:p ex:o1 .
    ex:d a ex:D ; ex:p ex:o1, ex:o2 .
  )",
                               &g)
                  .ok());
  g.Finalize();
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  auto shapes = shacl::GenerateShapes(g);
  ASSERT_TRUE(shapes.ok());
  ASSERT_TRUE(stats::AnnotateShapes(g, &*shapes).ok());

  auto q = sparql::ParseQuery(
      "PREFIX ex: <http://ex/>\n"
      "SELECT * WHERE { ?x a ex:C . ?x ex:p ex:o1 . ?x ex:p ex:o2 }");
  ASSERT_TRUE(q.ok());
  EncodedBgp bgp = sparql::EncodeBgp(*q, g.dict());
  auto r = ShapeChecker(gs, &*shapes, g.dict()).Check(*q, bgp);
  EXPECT_EQ(r.verdict, Satisfiability::kEmptyByStats);
  EXPECT_EQ(r.rule, "check.max-count-conflict");

  // Without shapes the conflict is not provable: D-instances do carry two
  // distinct ex:p objects, so count != DSC and no global proof exists.
  auto no_shapes = ShapeChecker(gs, nullptr, g.dict()).Check(*q, bgp);
  EXPECT_EQ(no_shapes.verdict, Satisfiability::kSatisfiable);
}

TEST_F(AnalysisFixture, CheckEmptyProofOutranksStatsProof) {
  auto r = CheckQuery(
      "SELECT * WHERE { ?x a ex:C . ?x a ex:D . ?x ex:nosuch ?y }");
  EXPECT_EQ(r.verdict, Satisfiability::kEmpty);
  EXPECT_EQ(r.rule, "check.missing-constant");
  EXPECT_EQ(CountRule(r.diagnostics, "check.disjoint-classes"), 1u)
      << ToText(r.diagnostics);
}

TEST_F(AnalysisFixture, CheckDuplicateAndSubsumedPatternsWarn) {
  auto dup = CheckQuery("SELECT * WHERE { ?x ex:p ?y . ?x ex:p ?y }");
  EXPECT_EQ(dup.verdict, Satisfiability::kSatisfiable);
  EXPECT_EQ(CountRule(dup.diagnostics, "check.duplicate-pattern"), 1u)
      << ToText(dup.diagnostics);

  auto sub = CheckQuery("SELECT ?x WHERE { ?x ex:p ex:o1 . ?x ex:p ?z }");
  EXPECT_EQ(sub.verdict, Satisfiability::kSatisfiable);
  EXPECT_EQ(CountRule(sub.diagnostics, "check.subsumed-pattern"), 1u)
      << ToText(sub.diagnostics);
}

TEST_F(AnalysisFixture, CheckFilterContradictionAndTautology) {
  auto contra =
      CheckQuery("SELECT ?x WHERE { ?x ex:p ?y . FILTER(?x != ?x) }");
  EXPECT_EQ(contra.verdict, Satisfiability::kEmpty);
  EXPECT_EQ(contra.rule, "check.filter-contradiction");

  auto taut = CheckQuery("SELECT ?x WHERE { ?x ex:p ?y . FILTER(?x = ?x) }");
  EXPECT_EQ(taut.verdict, Satisfiability::kSatisfiable);
  EXPECT_EQ(CountRule(taut.diagnostics, "check.filter-tautology"), 1u)
      << ToText(taut.diagnostics);

  // A self-comparison on a variable the BGP never binds is an execution
  // error, not an empty result — the checker must not claim it. The parser
  // rejects such text, so build the degenerate query by mutation.
  auto q = sparql::ParseQuery(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }");
  ASSERT_TRUE(q.ok());
  q->filters.push_back({sparql::Variable{"z"}, sparql::CompareOp::kNe,
                        sparql::Variable{"z"}});
  EncodedBgp bgp = sparql::EncodeBgp(*q, graph_.dict());
  auto unbound = ShapeChecker(gs_, &shapes_, graph_.dict()).Check(*q, bgp);
  EXPECT_EQ(unbound.verdict, Satisfiability::kSatisfiable);
  EXPECT_EQ(CountRule(unbound.diagnostics, "check.filter-contradiction"), 0u);
}

TEST_F(AnalysisFixture, CheckInfersClassForUntypedVariable) {
  // ex:q occurs only in class D's property shapes and D's shape accounts
  // for all 1 of its occurrences, so every q-subject is a D-instance.
  auto r = CheckQuery("SELECT * WHERE { ?x ex:q ?y }");
  EXPECT_EQ(r.verdict, Satisfiability::kSatisfiable);
  ASSERT_EQ(r.inferred.size(), 1u) << ToText(r.diagnostics);
  EXPECT_EQ(r.inferred[0].class_iri, "http://ex/D");
  EXPECT_EQ(CountRule(r.diagnostics, "check.inferred-class"), 1u);

  auto anchors = r.InferredAnchors(gs_);
  ASSERT_EQ(anchors.size(), 1u);
  EXPECT_EQ(anchors.begin()->second, *graph_.dict().FindIri("http://ex/D"));

  // An explicit rdf:type pattern suppresses the (redundant) inference.
  auto typed = CheckQuery("SELECT * WHERE { ?x a ex:D . ?x ex:q ?y }");
  EXPECT_TRUE(typed.inferred.empty()) << ToText(typed.diagnostics);

  // Without shapes there is nothing to infer from.
  auto no_shapes =
      CheckQuery("SELECT * WHERE { ?x ex:q ?y }", /*with_shapes=*/false);
  EXPECT_TRUE(no_shapes.inferred.empty());
}

// --- executors: hand-built degenerate queries fail ---

TEST_F(AnalysisFixture, ExecutorsRejectHandBuiltUnboundReferences) {
  // The parser rejects unbound references in query text, so only
  // hand-constructed queries can carry them; both SELECT executors must
  // answer those with InvalidArgument rather than rows or a crash.
  auto base = sparql::ParseQuery(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }");
  ASSERT_TRUE(base.ok());
  const std::vector<std::function<void(sparql::ParsedQuery*)>> mutations = {
      [](sparql::ParsedQuery* q) {
        q->projection.push_back(sparql::Variable{"z"});
      },
      [](sparql::ParsedQuery* q) {
        q->filters.push_back({sparql::Variable{"w"}, sparql::CompareOp::kGt,
                              sparql::Variable{"x"}});
      },
      [](sparql::ParsedQuery* q) {
        q->order_by = sparql::OrderKey{sparql::Variable{"w"}, false};
      },
  };
  for (size_t i = 0; i < mutations.size(); ++i) {
    sparql::ParsedQuery q = *base;
    mutations[i](&q);
    const EncodedBgp bgp = sparql::EncodeBgp(q, graph_.dict());
    auto streamed = exec::ExecuteSelect(graph_, q, bgp, {0});
    EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument)
        << "mutation " << i << ": " << streamed.status().ToString();
    opt::Plan plan;
    plan.order = {0};
    phys::PlannerOptions merge;
    merge.mode = phys::JoinMode::kMerge;
    auto physical = phys::ExecuteSelectPhysical(
        graph_, q, bgp, phys::PlanPhysical(bgp, plan, graph_, merge));
    EXPECT_EQ(physical.status().code(), StatusCode::kInvalidArgument)
        << "mutation " << i << ": " << physical.status().ToString();
  }

  // The unmutated query runs on both.
  const EncodedBgp bgp = sparql::EncodeBgp(*base, graph_.dict());
  auto clean = exec::ExecuteSelect(graph_, *base, bgp, {0});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->rows.size(), 3u);
}

// --- engine integration: every produced plan verifies, lint surfaces ---

TEST_F(AnalysisFixture, EngineVerifiesPlansAndLints) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(kData, &g).ok());
  g.Finalize();
  auto engine = engine::QueryEngine::Open(std::move(g));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  obs::Counter* verifications =
      obs::MetricsRegistry::Global().GetCounter("analysis.plan_verifications");
  obs::Counter* violations =
      obs::MetricsRegistry::Global().GetCounter("analysis.plan_violations");
  uint64_t verifications_before = verifications->value();
  uint64_t violations_before = violations->value();

  const char* query =
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x a ex:C . ?x ex:p ?y }";
  auto r = engine->Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows.size(), 3u);
  EXPECT_GT(verifications->value(), verifications_before);
  EXPECT_EQ(violations->value(), violations_before);

  // A missing constant is reported exactly once by every static entry
  // point: StaticCheck's findings and EXPLAIN's text.
  const char* empty_query =
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:nothere ?y }";
  auto check = engine->StaticCheck(empty_query);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->verdict, Satisfiability::kEmpty);
  EXPECT_EQ(check->diagnostics.size(), 1u) << ToText(check->diagnostics);
  EXPECT_EQ(CountRule(check->diagnostics, "check.missing-constant"), 1u)
      << ToText(check->diagnostics);

  auto explain = engine->Explain(empty_query);
  ASSERT_TRUE(explain.ok());
  size_t findings = 0;
  for (size_t at = explain->find("missing-constant]"); at != std::string::npos;
       at = explain->find("missing-constant]", at + 1)) {
    ++findings;
  }
  EXPECT_EQ(findings, 1u) << *explain;
  EXPECT_NE(explain->find("[check.missing-constant]"), std::string::npos)
      << *explain;
}

TEST_F(AnalysisFixture, EngineResultCarriesTheVerdictItWasAnsweredUnder) {
  const char* empty_query =
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:nothere ?y }";
  for (bool static_check : {true, false}) {
    rdf::Graph g;
    ASSERT_TRUE(rdf::ParseTurtle(kData, &g).ok());
    g.Finalize();
    engine::EngineOptions opts;
    opts.static_check = static_check;
    auto engine = engine::QueryEngine::Open(std::move(g), opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto empty = engine->Execute(empty_query);
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_TRUE(empty->table.rows.empty());
    // Without the check the engine plans and executes the query, so there
    // is no verdict to report.
    EXPECT_EQ(empty->verdict, static_check ? Satisfiability::kEmpty
                                           : Satisfiability::kSatisfiable);
    EXPECT_EQ(empty->plan.provider == "static-empty", static_check);
    auto rows = engine->Execute(
        "PREFIX ex: <http://ex/> SELECT * WHERE { ?x a ex:C . ?x ex:p ?y }");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->verdict, Satisfiability::kSatisfiable);
  }
}

// --- concurrency: metrics registry and the estimator's shape cache ---

TEST(AnalysisConcurrencyTest, MetricsRegistryConcurrentAccess) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      obs::Counter* c = reg.GetCounter("conc.c" + std::to_string(t % 4));
      obs::Histogram* h = reg.GetHistogram("conc.h");
      for (int i = 0; i < kIters; ++i) {
        c->Add();
        h->Observe(static_cast<double>(i));
        if (i % 256 == 0) (void)reg.Snap();
      }
    });
  }
  for (auto& th : threads) th.join();

  uint64_t total = 0;
  for (const auto& entry : reg.Snap().counters) total += entry.value;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("conc.h")->Snap().count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// Regression: concurrent first lookups of the same class must count the
// cache miss exactly once (the losing inserters re-check under the lock
// and count hits).
TEST(AnalysisConcurrencyTest, ShapeCacheCountsSingleMiss) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(kData, &g).ok());
  g.Finalize();
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  auto shapes = shacl::GenerateShapes(g);
  ASSERT_TRUE(shapes.ok());
  ASSERT_TRUE(stats::AnnotateShapes(g, &*shapes).ok());

  auto q = sparql::ParseQuery(
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x a ex:C . ?x ex:p ?y }");
  ASSERT_TRUE(q.ok());
  EncodedBgp bgp = sparql::EncodeBgp(*q, g.dict());

  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("card.shape_cache_hit");
  obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("card.shape_cache_miss");
  uint64_t hits_before = hits->value();
  uint64_t misses_before = misses->value();

  card::CardinalityEstimator est(gs, &*shapes, g.dict(),
                                 card::StatsMode::kShape);
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&est, &bgp] {
      for (int i = 0; i < kIters; ++i) (void)est.EstimateAll(bgp);
    });
  }
  for (auto& th : threads) th.join();

  // Both patterns resolve class C: one miss ever, hits for the rest.
  uint64_t lookups = static_cast<uint64_t>(kThreads) * kIters * 2;
  EXPECT_EQ(misses->value() - misses_before, 1u);
  EXPECT_EQ(hits->value() - hits_before, lookups - 1);
}

}  // namespace
}  // namespace shapestats::analysis
