// Tests for src/phys: planner operator selection, the phys.* verifier rule
// catalog, the physical executor's byte-identical-results contract against
// the depth-first INLJ executor (including hand-written merge and INLJ
// plans the planner would not emit), and end-to-end forced-operator digest
// equality over the LUBM workload across thread-pool sizes. The workload
// sweep runs under the TSan CI job, so it doubles as data-race coverage
// for the materializing merge operator.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "analysis/plan_verify.h"
#include "card/estimator.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "exec/executor.h"
#include "exec/select_executor.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/physical_plan.h"
#include "phys/planner.h"
#include "rdf/turtle.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

using phys::JoinMode;
using phys::OpKind;

// ---------------------------------------------------------------------------
// Plumbing: names, env resolution, merge-run availability.

TEST(PhysPlanTest, OperatorAndModeNames) {
  EXPECT_STREQ(phys::OpName(OpKind::kScan), "scan");
  EXPECT_STREQ(phys::OpName(OpKind::kInlj), "inlj");
  EXPECT_STREQ(phys::OpName(OpKind::kMerge), "merge");
  EXPECT_STREQ(phys::OpName(OpKind::kProduct), "product");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kAuto), "auto");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kInlj), "inlj");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kMerge), "merge");
}

sparql::EncodedPattern Pattern(bool s_var, bool p_var, bool o_var) {
  sparql::EncodedPattern tp;
  auto term = [](bool is_var) {
    sparql::EncodedTerm t;
    if (is_var) {
      t.kind = sparql::EncodedTerm::Kind::kVar;
      t.id = 0;
    } else {
      t.kind = sparql::EncodedTerm::Kind::kBound;
      t.id = 1;
    }
    return t;
  };
  tp.s = term(s_var);
  tp.p = term(p_var);
  tp.o = term(o_var);
  return tp;
}

TEST(PhysPlanTest, MergeRunAvailabilityMatrix) {
  // Subject joins: some index run is sorted by subject for every constant
  // signature (SPO, PSO, OSP leftovers).
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, true, true), 0));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, false, true), 0));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, true, false), 0));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, false, false), 0));
  // Object joins: available unless the subject is constant while the
  // predicate is a variable (no index orders by object inside an S run).
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, true, true), 2));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, false, true), 2));
  EXPECT_FALSE(phys::MergeRunAvailable(Pattern(false, true, true), 2));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(false, false, true), 2));
  // Predicate joins are never merged.
  EXPECT_FALSE(phys::MergeRunAvailable(Pattern(true, true, true), 1));
  EXPECT_FALSE(phys::MergeRunAvailable(Pattern(false, true, false), 1));
}

// ---------------------------------------------------------------------------
// Planner + verifier + executor over a small handmade graph.

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
ex:s1 a ex:Student ; ex:takes ex:c1, ex:c2 ; ex:advisor ex:p1 ; ex:name "a" .
ex:s2 a ex:Student ; ex:takes ex:c1 ; ex:advisor ex:p1 .
ex:s3 a ex:Student ; ex:takes ex:c2 ; ex:advisor ex:p2 .
ex:s4 a ex:Student ; ex:takes ex:c3 ; ex:advisor ex:p2 .
ex:p1 a ex:Prof ; ex:teaches ex:c1 ; ex:name "b" .
ex:p2 a ex:Prof ; ex:teaches ex:c2, ex:c3 .
ex:c1 a ex:Course .
ex:c2 a ex:Course .
ex:c3 a ex:Course .
)";

class PhysFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kData, &graph_).ok());
    graph_.Finalize();
    gs_ = stats::GlobalStats::Compute(graph_);
  }

  sparql::EncodedBgp Encode(const std::string& body) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE {" +
                                body + "}");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    query_ = *q;
    return sparql::EncodeBgp(*q, graph_.dict());
  }

  opt::Plan PlanFor(const sparql::EncodedBgp& bgp) {
    card::CardinalityEstimator est(gs_, nullptr, graph_.dict(),
                                   card::StatsMode::kGlobal);
    return opt::PlanJoinOrder(bgp, est);
  }

  phys::PlannerOptions Forced(JoinMode mode) {
    phys::PlannerOptions o;
    o.mode = mode;
    return o;
  }

  rdf::Graph graph_;
  stats::GlobalStats gs_;
  sparql::ParsedQuery query_;
};

TEST_F(PhysFixture, ForcedModesAnnotateEveryJoinStep) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = PlanFor(bgp);

  phys::PhysicalPlan inlj =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kInlj));
  ASSERT_EQ(inlj.steps.size(), plan.order.size());
  EXPECT_EQ(inlj.steps[0].op, OpKind::kScan);
  EXPECT_FALSE(inlj.Materializes());
  for (size_t k = 1; k < inlj.steps.size(); ++k) {
    EXPECT_EQ(inlj.steps[k].op, OpKind::kInlj) << "step " << k;
    EXPECT_EQ(inlj.steps[k].rationale, "forced by join mode inlj");
  }

  phys::PhysicalPlan merge =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  size_t merges = 0;
  for (size_t k = 1; k < merge.steps.size(); ++k) {
    const phys::PhysicalStep& st = merge.steps[k];
    if (st.op == OpKind::kMerge) {
      ++merges;
      EXPECT_TRUE(st.merge_ok);
      EXPECT_GE(st.join_pos, 0);
      EXPECT_NE(st.join_pos, 1);  // predicate joins are never merged
    } else {
      EXPECT_EQ(st.op, OpKind::kInlj);
      EXPECT_NE(st.rationale.find("merge unavailable"), std::string::npos);
    }
  }
  EXPECT_GT(merges, 0u);
  EXPECT_TRUE(merge.Materializes());
}

TEST_F(PhysFixture, AutoModeTinyLeftPrefersInlj) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p . ?p ex:teaches ?c");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kAuto));
  for (size_t k = 1; k < pplan.steps.size(); ++k) {
    EXPECT_EQ(pplan.steps[k].op, OpKind::kInlj);
    EXPECT_NE(pplan.steps[k].rationale.find("tiny left side"),
              std::string::npos);
  }
}

TEST_F(PhysFixture, AutoModeRulePastTinyThreshold) {
  // Past kTinyLeftRows, a step whose join component has a sorted index run
  // is a merge naming that run, a predicate-position join is an INLJ, and
  // a textual plan (no estimates) is an INLJ.
  auto bgp = Encode(
      "?x ex:advisor ?p . ?y ex:teaches ?p . ?x ex:name ?n . ?s ?n ?o");
  opt::Plan plan;
  plan.order = {0, 1, 2, 3};
  plan.step_estimates = {100, 100, 100, 100};
  plan.tp_estimates.resize(bgp.patterns.size());
  for (card::TpEstimate& tp : plan.tp_estimates) tp.card = 100;
  const phys::PlannerOptions opts = Forced(JoinMode::kAuto);
  phys::PhysicalPlan pplan = phys::PlanPhysical(bgp, plan, graph_, opts);
  ASSERT_EQ(pplan.steps.size(), 4u);
  EXPECT_EQ(pplan.steps[1].op, OpKind::kMerge);
  EXPECT_EQ(pplan.steps[1].join_pos, 2);
  EXPECT_EQ(pplan.steps[1].rationale,
            "left side ~100 rows; merge with the POS run sorted by object");
  EXPECT_EQ(pplan.steps[2].op, OpKind::kMerge);
  EXPECT_EQ(pplan.steps[2].rationale,
            "left side ~100 rows; merge with the PSO run sorted by subject");
  EXPECT_EQ(pplan.steps[3].op, OpKind::kInlj);
  EXPECT_EQ(pplan.steps[3].join_pos, 1);
  EXPECT_EQ(pplan.steps[3].rationale,
            "no index run sorted by the join component; inlj");

  opt::Plan textual;
  textual.order = plan.order;
  for (const phys::PhysicalStep& st :
       phys::PlanPhysical(bgp, textual, graph_, opts).steps) {
    if (st.op == OpKind::kScan) continue;
    EXPECT_EQ(st.op, OpKind::kInlj);
    EXPECT_EQ(st.rationale, "no estimates (textual plan); inlj");
  }
}

TEST_F(PhysFixture, TextualPlanWithoutEstimatesFallsBackToInlj) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p");
  opt::Plan plan;  // textual: order only, no estimates
  plan.order = {0, 1};
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kAuto));
  ASSERT_EQ(pplan.steps.size(), 2u);
  EXPECT_EQ(pplan.steps[1].op, OpKind::kInlj);
  EXPECT_EQ(pplan.steps[1].rationale, "no estimates (textual plan); inlj");
}

TEST_F(PhysFixture, CartesianStepIsLabeledProduct) {
  auto bgp = Encode("?x ex:takes ?c . ?p a ex:Prof");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  ASSERT_EQ(pplan.steps.size(), 2u);
  EXPECT_EQ(pplan.steps[1].op, OpKind::kProduct);
  EXPECT_EQ(pplan.steps[1].join_pos, -1);
}

TEST_F(PhysFixture, ForceInljDowngradesMaterializingSteps) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p . ?p ex:teaches ?c");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  ASSERT_TRUE(pplan.Materializes());
  phys::ForceInlj(&pplan, "pipelined: ASK/LIMIT early termination");
  EXPECT_FALSE(pplan.Materializes());
  for (size_t k = 1; k < pplan.steps.size(); ++k) {
    EXPECT_EQ(pplan.steps[k].op, OpKind::kInlj);
    EXPECT_EQ(pplan.steps[k].rationale,
              "pipelined: ASK/LIMIT early termination");
  }
}

// ---------------------------------------------------------------------------
// Verifier: the phys.* rule catalog fires on corrupted plans and stays
// silent on planner output.

TEST_F(PhysFixture, VerifierAcceptsPlannerOutputInEveryMode) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = PlanFor(bgp);
  analysis::PlanVerifier verifier;
  for (JoinMode mode : {JoinMode::kAuto, JoinMode::kInlj, JoinMode::kMerge}) {
    phys::PhysicalPlan pplan =
        phys::PlanPhysical(bgp, plan, graph_, Forced(mode));
    analysis::Diagnostics diags = verifier.Verify(pplan, plan, bgp);
    EXPECT_TRUE(diags.empty())
        << phys::JoinModeName(mode) << ": " << analysis::ToText(diags);
  }
}

TEST_F(PhysFixture, VerifierFlagsCorruptedPlans) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = PlanFor(bgp);
  analysis::PlanVerifier verifier;
  phys::PhysicalPlan good =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));

  {
    phys::PhysicalPlan bad = good;
    bad.steps.pop_back();
    EXPECT_EQ(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.steps-size"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    std::swap(bad.steps[1].pattern, bad.steps[2].pattern);
    EXPECT_GE(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.pattern-mismatch"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[0].op = OpKind::kInlj;
    EXPECT_EQ(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.first-step"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[1].est_right = std::numeric_limits<double>::quiet_NaN();
    EXPECT_GE(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.nonfinite-estimate"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[1].op = OpKind::kProduct;
    EXPECT_GE(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.product-mislabel"),
              1u);
  }
}

TEST_F(PhysFixture, VerifierFlagsMergeWithoutSortedRun) {
  // Object join into a pattern with a bound subject and variable predicate:
  // the one shape with no index run sorted by the join component.
  auto bgp = Encode("?x a ex:Course . ex:s1 ?pred ?x");
  opt::Plan plan;
  plan.order = {0, 1};
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  // The planner itself refuses (falls back to INLJ)...
  ASSERT_EQ(pplan.steps[1].op, OpKind::kInlj);
  // ...and the verifier catches a hand-forced merge.
  pplan.steps[1].op = OpKind::kMerge;
  pplan.steps[1].join_pos = 2;
  pplan.steps[1].join_var = bgp.patterns[1].o.id;
  analysis::PlanVerifier verifier;
  EXPECT_GE(analysis::CountRule(verifier.Verify(pplan, plan, bgp),
                                "phys.merge-order-unavailable"),
            1u);
}

// ---------------------------------------------------------------------------
// Executor: byte-identical results against the depth-first INLJ executor.

// The true per-step cardinalities of the BGP joined under `pplan`: the rows
// each step of the physical executor produces, with the FILTERs left out.
std::vector<uint64_t> PhysStepCards(const rdf::Graph& graph,
                                    sparql::ParsedQuery query,
                                    const sparql::EncodedBgp& bgp,
                                    const phys::PhysicalPlan& pplan) {
  query.filters.clear();
  obs::ExecTrace trace;
  exec::ExecOptions opts;
  opts.trace = &trace;
  auto run = phys::ExecuteSelectPhysical(graph, query, bgp, pplan, opts);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return trace.step_rows_produced;
}

TEST_F(PhysFixture, BgpResultsMatchDepthFirstExecutorInEveryMode) {
  const std::vector<std::string> bodies = {
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p",
      "?x ex:advisor ?p . ?p ex:teaches ?c",
      "?x ex:takes ?c . ?p a ex:Prof",          // Cartesian product
      "?x ex:takes ?c . ?c a ex:Course . ?x a ex:Student",
      "?x ?pred ?x",                            // repeated variable
  };
  for (const std::string& body : bodies) {
    SCOPED_TRACE(body);
    auto bgp = Encode(body);
    opt::Plan plan = PlanFor(bgp);
    auto expected = exec::ExecuteBgp(graph_, bgp, plan.order);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (JoinMode mode : {JoinMode::kAuto, JoinMode::kInlj, JoinMode::kMerge}) {
      SCOPED_TRACE(phys::JoinModeName(mode));
      phys::PhysicalPlan pplan =
          phys::PlanPhysical(bgp, plan, graph_, Forced(mode));
      obs::ExecTrace trace;
      exec::ExecOptions opts;
      opts.trace = &trace;
      auto got = phys::ExecuteSelectPhysical(graph_, query_, bgp, pplan, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->bgp_matches, expected->num_results);
      EXPECT_EQ(trace.step_rows_produced, expected->step_cards);
    }
  }
}

TEST_F(PhysFixture, SelectRowsAreByteIdenticalInEveryMode) {
  const std::vector<std::string> queries = {
      "SELECT * WHERE { ?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c "
      ". ?x ex:advisor ?p }",
      "SELECT ?x ?c WHERE { ?x ex:takes ?c . ?c a ex:Course . ?x a "
      "ex:Student } ORDER BY ?c",
      "SELECT DISTINCT ?p WHERE { ?x ex:advisor ?p . ?p ex:teaches ?c }",
      "SELECT ?x ?n WHERE { ?x a ex:Student . ?x ex:name ?n . ?x ex:advisor "
      "?p . ?p ex:name ?m . FILTER(?n < ?m) }",
      "SELECT * WHERE { ?x ex:advisor ?p . ?p ex:teaches ?c } OFFSET 1",
  };
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\n" + text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto bgp = sparql::EncodeBgp(*q, graph_.dict());
    opt::Plan plan = PlanFor(bgp);
    auto expected = exec::ExecuteSelect(graph_, *q, bgp, plan.order);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (JoinMode mode : {JoinMode::kAuto, JoinMode::kInlj, JoinMode::kMerge}) {
      SCOPED_TRACE(phys::JoinModeName(mode));
      phys::PhysicalPlan pplan =
          phys::PlanPhysical(bgp, plan, graph_, Forced(mode));
      auto got = phys::ExecuteSelectPhysical(graph_, *q, bgp, pplan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->var_names, expected->var_names);
      EXPECT_EQ(got->rows, expected->rows);
      EXPECT_EQ(got->bgp_matches, expected->bgp_matches);
    }
  }
}

TEST_F(PhysFixture, LimitPushdownIsRejected) {
  auto bgp = Encode("?x ex:advisor ?p . ?p ex:teaches ?c");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  exec::ExecOptions opts;
  opts.limit = 1;
  auto r = phys::ExecuteSelectPhysical(graph_, query_, bgp, pplan, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PhysFixture, TimeoutBeforeFinalStepYieldsNoPartialRows) {
  auto bgp = Encode("?x ex:takes ?c . ?c a ex:Course . ?x a ex:Student");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  exec::ExecOptions opts;
  opts.max_intermediate_rows = 1;  // abort inside an early step
  auto r = phys::ExecuteSelectPhysical(graph_, query_, bgp, pplan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->timed_out);
  // Rows of an aborted intermediate step are not solutions.
  EXPECT_TRUE(r->rows.empty());
}

// ---------------------------------------------------------------------------
// Emission order on hand-written plans: every query commits exactly the
// depth-first rows, with its join steps as merges and as INLJs.

// Join keys repeat on both sides (?y = ex:b is known three times and likes
// two things), and ex:likes lists (subject, object) pairs whose subject
// order differs from their object order.
constexpr const char* kOrderData = R"(
@prefix ex: <http://ex/> .
ex:a ex:knows ex:b, ex:c .
ex:d ex:knows ex:b, ex:c .
ex:e ex:knows ex:b .
ex:b ex:likes ex:x, ex:y ; ex:uses ex:likes .
ex:c ex:likes ex:x ; ex:uses ex:knows, ex:likes .
ex:x ex:likes ex:b .
)";

// A physical plan in textual order: step k + 1 runs ops[k], joining on the
// first component of its pattern that holds a variable an earlier pattern
// binds.
phys::PhysicalPlan HandPlan(const sparql::EncodedBgp& bgp,
                            const std::vector<OpKind>& ops) {
  phys::PhysicalPlan plan;
  std::vector<bool> bound(bgp.NumVars(), false);
  for (size_t k = 0; k < bgp.patterns.size(); ++k) {
    const sparql::EncodedPattern& tp = bgp.patterns[k];
    phys::PhysicalStep st;
    st.pattern = static_cast<uint32_t>(k);
    st.op = k == 0 ? OpKind::kScan : ops[k - 1];
    const sparql::EncodedTerm* terms[3] = {&tp.s, &tp.p, &tp.o};
    for (int pos = 0; pos < 3 && k > 0; ++pos) {
      if (terms[pos]->is_var() && bound[terms[pos]->id]) {
        st.join_pos = pos;
        st.join_var = terms[pos]->id;
        break;
      }
    }
    for (const sparql::EncodedTerm* e : terms) {
      if (e->is_var()) bound[e->id] = true;
    }
    plan.steps.push_back(st);
  }
  return plan;
}

TEST(PhysOrderTest, EveryOperatorCommitsDepthFirstRows) {
  rdf::Graph graph;
  ASSERT_TRUE(rdf::ParseTurtle(kOrderData, &graph).ok());
  graph.Finalize();

  struct Case {
    const char* body;
    std::vector<OpKind> ops;
  };
  const std::vector<Case> cases = {
      // Duplicate join keys on both sides, one and two join steps.
      {"?x ex:knows ?y . ?y ex:likes ?z", {OpKind::kMerge}},
      {"?x ex:knows ?y . ?y ex:likes ?z . ?w ex:knows ?y",
       {OpKind::kMerge, OpKind::kMerge}},
      // Two free components after the join: on the subject the SPO run is
      // already in MatchOrder; a predicate join has no sorted run, so the
      // merge falls back to INLJ, whose probe commits in (object, subject)
      // order.
      {"?x ex:knows ?p . ?p ?q ?o", {OpKind::kMerge}},
      {"?c ex:uses ?q . ?s ?q ?o", {OpKind::kMerge}},
      {"?x ex:knows ?y . ?y ex:uses ?q . ?s ?q ?o",
       {OpKind::kMerge, OpKind::kMerge}},
      // Merges whose left rows are not sorted on the join variable (the
      // ex:likes scan orders them by ?z), on object and subject runs.
      {"?y ex:likes ?z . ?x ex:knows ?y", {OpKind::kMerge}},
      {"?y ex:likes ?z . ?y ex:uses ?u", {OpKind::kMerge}},
      {"?y ex:likes ?z . ?x ex:knows ?y . ?y ?q ?o",
       {OpKind::kMerge, OpKind::kMerge}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE { " +
                                std::string(c.body) + " }");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph.dict());
    std::vector<uint32_t> order(bgp.patterns.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    auto expected_rows = exec::ExecuteSelect(graph, *q, bgp, order);
    auto expected_cards = exec::ExecuteBgp(graph, bgp, order);
    ASSERT_TRUE(expected_rows.ok()) << expected_rows.status().ToString();
    ASSERT_TRUE(expected_cards.ok()) << expected_cards.status().ToString();
    ASSERT_FALSE(expected_rows->rows.empty());

    const std::vector<OpKind> inlj(c.ops.size(), OpKind::kInlj);
    for (const std::vector<OpKind>* ops : {&c.ops, &inlj}) {
      phys::PhysicalPlan pplan = HandPlan(bgp, *ops);
      for (size_t k = 1; k < pplan.steps.size(); ++k) {
        ASSERT_GE(pplan.steps[k].join_pos, 0) << "step " << k;
      }
      SCOPED_TRACE(pplan.Summary());
      auto rows = phys::ExecuteSelectPhysical(graph, *q, bgp, pplan);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->rows, expected_rows->rows);
      EXPECT_EQ(PhysStepCards(graph, *q, bgp, pplan),
                expected_cards->step_cards);
    }
  }
}

// ---------------------------------------------------------------------------
// Merge joins over every index run MergeRightSpan serves: left rows sorted
// and unsorted on the join key, with and without a second prefix-bound
// variable in the merged pattern, plus the key-distribution edge cases.

// Nodes ex:n0..ex:n29 are interned right after 250 unused terms, so their
// ids ascend with the index and straddle 256: key order below is node
// order, and the merge's radix sort of the left keys needs two passes.
rdf::Graph MergeGraph() {
  rdf::Graph g;
  auto node = [](int i) {
    return rdf::Term::Iri("http://ex/n" + std::to_string(i % 30));
  };
  auto iri = [](const std::string& local) {
    return rdf::Term::Iri("http://ex/" + local);
  };
  for (int f = 0; f < 250; ++f) {
    g.dict().Intern(rdf::Term::Iri("http://ex/u" + std::to_string(f)));
  }
  for (int i = 0; i < 30; ++i) g.dict().Intern(node(i));
  for (int i = 0; i < 30; ++i) {
    // ?x ex:drv ?y lists the nodes out of order; ?y ex:drv ?x in order.
    if (i % 3 != 0) g.Add(node(i), iri("drv"), node(7 * i + 3));
    g.Add(node(i), iri("w"), node(i + 5));
    g.Add(node(i), iri("usesPred"), iri(i % 2 == 0 ? "p" : "q"));
    if (i % 2 == 0) {
      for (int j : {i + 5, i * i, i + 25}) g.Add(node(i), iri("p"), node(j));
    }
    if (i % 5 != 1) g.Add(node(i), iri("q"), node(3 * i));
    if (i % 4 == 0) g.Add(node(i), iri("p"), iri("o1"));
    if (i % 6 == 0) g.Add(node(i), iri("q"), iri("o1"));
    if (i < 10) g.Add(node(i), iri("same"), node(4));
    if (i >= 10 && i < 20) g.Add(node(i), iri("r"), node(i + 1));
    g.Add(node(i), iri("self"), node(i % 2 == 0 ? i : i + 1));
  }
  g.Finalize();
  return g;
}

// Runs `body` in textual order: every step INLJ except the last, a merge on
// component `join_pos` of the last pattern. Checks the table and the step
// cardinalities against the depth-first executor and returns the merge
// step's work counters.
obs::ExecTrace CheckMergeAgainstInlj(const rdf::Graph& graph,
                                     const std::string& body, int join_pos) {
  SCOPED_TRACE(body);
  obs::ExecTrace trace;
  auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE { " +
                              body + " }");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return trace;
  sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph.dict());
  std::vector<uint32_t> order(bgp.patterns.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::vector<OpKind> ops(order.size() - 1, OpKind::kInlj);
  ops.back() = OpKind::kMerge;
  phys::PhysicalPlan pplan = HandPlan(bgp, ops);
  phys::PhysicalStep& last = pplan.steps.back();
  const sparql::EncodedPattern& tp = bgp.patterns.back();
  last.join_pos = join_pos;
  last.join_var = (join_pos == 0 ? tp.s : tp.o).id;
  EXPECT_TRUE(phys::MergeRunAvailable(tp, join_pos));

  auto expected_rows = exec::ExecuteSelect(graph, *q, bgp, order);
  auto expected_cards = exec::ExecuteBgp(graph, bgp, order);
  EXPECT_TRUE(expected_rows.ok() && expected_cards.ok());
  if (!expected_rows.ok() || !expected_cards.ok()) return trace;
  EXPECT_FALSE(expected_rows->rows.empty());
  exec::ExecOptions opts;
  opts.trace = &trace;
  auto rows = phys::ExecuteSelectPhysical(graph, *q, bgp, pplan, opts);
  EXPECT_TRUE(rows.ok());
  if (!rows.ok()) return trace;
  EXPECT_EQ(rows->rows, expected_rows->rows);
  EXPECT_EQ(trace.step_rows_produced, expected_cards->step_cards);
  return trace;
}

TEST(PhysMergeTest, EveryRunSignatureEmitsDepthFirstRows) {
  const rdf::Graph graph = MergeGraph();
  struct Case {
    const char* prefix;  // binds ?x, and ?w when the pattern uses it
    const char* merged;
    int join_pos;
  };
  const std::vector<Case> cases = {
      // Subject joins: constants {p,o}, {p}, {o}, none.
      {"", "?x ex:p ex:o1", 0},
      {"", "?x ex:p ?z", 0},
      {"?x ex:w ?w .", "?x ex:p ?w", 0},
      {"", "?x ?q ex:o1", 0},
      {"?x ex:usesPred ?w .", "?x ?w ex:o1", 0},
      {"", "?x ?q ?z", 0},
      {"?x ex:w ?w .", "?x ?q ?w", 0},
      {"?x ex:usesPred ?w .", "?x ?w ?z", 0},
      // Object joins: constants {s,p}, {p}, none.
      {"", "ex:n4 ex:p ?x", 2},
      {"", "?z ex:p ?x", 2},
      {"?w ex:w ?x .", "?w ex:p ?x", 2},
      {"", "?z ?q ?x", 2},
      {"?w ex:w ?x .", "?w ?q ?x", 2},
      {"?x ex:usesPred ?w .", "?z ?w ?x", 2},
  };
  // Left rows unsorted on ?x (the POS scan leads with ?y), then sorted.
  for (const char* lead : {"?x ex:drv ?y .", "?y ex:drv ?x ."}) {
    for (const Case& c : cases) {
      CheckMergeAgainstInlj(graph,
                            std::string(lead) + " " + c.prefix + " " +
                                c.merged,
                            c.join_pos);
    }
  }
}

TEST(PhysMergeTest, KeyDistributionEdgeCases) {
  const rdf::Graph graph = MergeGraph();
  const std::vector<std::string> bodies = {
      // Duplicate left keys: every ?x repeats once per ex:p object.
      "?x ex:p ?y . ?x ex:q ?z",
      "?y ex:p ?x . ?x ex:q ?z",
      // All-equal left keys.
      "?y ex:same ?x . ?x ex:p ?z",
      // Keys absent from the ex:r run (subjects n10..n19), and keys before
      // its first and after its last triple.
      "?x ex:drv ?y . ?x ex:r ?z",
      "?y ex:drv ?x . ?x ex:r ?z",
      // A single left row.
      "ex:n1 ex:drv ?x . ?x ex:q ?z",
      // A repeated variable in the merged pattern.
      "?x ex:drv ?y . ?x ex:self ?x",
      "?y ex:drv ?x . ?x ex:self ?x",
  };
  for (const std::string& body : bodies) CheckMergeAgainstInlj(graph, body, 0);
}

TEST(PhysMergeTest, ProbesOncePerDistinctKeyAndSkipsUnmatchedRun) {
  const rdf::Graph graph = MergeGraph();
  const rdf::TermId p = *graph.dict().FindIri("http://ex/p");
  const uint64_t run_size = graph.PredicateBySubject(p).size();
  // ex:same gives ten left rows with one key, ex:n4: one gallop, and only
  // n4's three ex:p triples are scanned, once per left row.
  obs::ExecTrace same =
      CheckMergeAgainstInlj(graph, "?y ex:same ?x . ?x ex:p ?z", 0);
  ASSERT_EQ(same.step_probes.size(), 2u);
  EXPECT_EQ(same.step_probes[1], 1u);
  EXPECT_EQ(same.step_rows_scanned[1], 10u * 4u);
  // ex:drv reaches 20 distinct nodes, in and out of key order.
  for (const char* body :
       {"?x ex:drv ?y . ?x ex:p ?z", "?y ex:drv ?x . ?x ex:p ?z"}) {
    obs::ExecTrace t = CheckMergeAgainstInlj(graph, body, 0);
    ASSERT_EQ(t.step_probes.size(), 2u);
    EXPECT_EQ(t.step_probes[1], 20u) << body;
    EXPECT_LT(t.step_rows_scanned[1], run_size) << body;
  }
}

// ---------------------------------------------------------------------------
// The per-step bind program: every component kind (constant, prefix-bound
// column, repeated free variable, written column) against the depth-first
// executor, in every join mode and on hand-built plans the planner would
// not emit.

constexpr const char* kBindData = R"(
@prefix ex: <http://ex/> .
ex:a ex:a ex:a .
ex:b ex:b ex:b .
ex:a ex:p ex:a , ex:b .
ex:b ex:p ex:a .
ex:c ex:p ex:c .
ex:b ex:q ex:b .
ex:a ex:q ex:c .
ex:a ex:r 2 .
ex:b ex:r 3 .
ex:c ex:r 1 .
)";

// Checks the SELECT * rows and the step cardinalities of `body`, run in
// textual order, against the depth-first executor: on the planner's plan
// in every join mode, and on `hand` when it is given.
void ExpectDepthFirstRows(const rdf::Graph& graph, const std::string& body,
                          const phys::PhysicalPlan* hand = nullptr) {
  SCOPED_TRACE(body);
  auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE { " +
                              body + " }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph.dict());
  opt::Plan plan;
  for (uint32_t k = 0; k < bgp.patterns.size(); ++k) plan.order.push_back(k);
  auto expected_rows = exec::ExecuteSelect(graph, *q, bgp, plan.order);
  auto expected_cards = exec::ExecuteBgp(graph, bgp, plan.order);
  ASSERT_TRUE(expected_rows.ok()) << expected_rows.status().ToString();
  ASSERT_TRUE(expected_cards.ok()) << expected_cards.status().ToString();

  std::vector<phys::PhysicalPlan> plans;
  for (JoinMode mode : {JoinMode::kAuto, JoinMode::kInlj, JoinMode::kMerge}) {
    phys::PlannerOptions o;
    o.mode = mode;
    plans.push_back(phys::PlanPhysical(bgp, plan, graph, o));
  }
  if (hand != nullptr) plans.push_back(*hand);
  for (const phys::PhysicalPlan& pplan : plans) {
    SCOPED_TRACE(pplan.Summary());
    auto rows = phys::ExecuteSelectPhysical(graph, *q, bgp, pplan);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->var_names, expected_rows->var_names);
    EXPECT_EQ(rows->rows, expected_rows->rows);
    EXPECT_EQ(rows->bgp_matches, expected_rows->bgp_matches);
    EXPECT_EQ(PhysStepCards(graph, *q, bgp, pplan),
              expected_cards->step_cards);
  }
}

class PhysBindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kBindData, &graph_).ok());
    graph_.Finalize();
  }

  // HandPlan over `body` with every join step `op`.
  phys::PhysicalPlan Hand(const std::string& body, OpKind op) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE { " +
                                body + " }");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    bgp_ = sparql::EncodeBgp(*q, graph_.dict());
    return HandPlan(bgp_, std::vector<OpKind>(bgp_.patterns.size() - 1, op));
  }

  rdf::Graph graph_;
  sparql::EncodedBgp bgp_;
};

TEST_F(PhysBindTest, VariableRepeatedInAllThreePositions) {
  ExpectDepthFirstRows(graph_, "?x ?x ?x");
  for (OpKind op : {OpKind::kInlj, OpKind::kMerge}) {
    const std::string body = "?x ex:p ?y . ?y ?y ?y";
    phys::PhysicalPlan hand = Hand(body, op);
    ExpectDepthFirstRows(graph_, body, &hand);
  }
}

TEST_F(PhysBindTest, RepeatedVariableFreeThenPrefixBound) {
  // ?x is a repeated free variable in the first pattern and a repeated
  // prefix-bound one in the second; ?p and ?o swap roles between steps.
  for (const char* body : {"?x ex:p ?x . ?x ?p ?x", "?x ?p ?o . ?o ?p ?x",
                           "?y ex:q ?x . ?x ?x ?x . ?x ex:p ?x"}) {
    ExpectDepthFirstRows(graph_, body);
    for (OpKind op : {OpKind::kInlj, OpKind::kMerge}) {
      phys::PhysicalPlan hand = Hand(body, op);
      ExpectDepthFirstRows(graph_, body, &hand);
    }
  }
}

TEST_F(PhysBindTest, AllConstantPatternsGiveWidthZeroRows) {
  ExpectDepthFirstRows(graph_, "ex:a ex:p ex:b");
  ExpectDepthFirstRows(graph_, "ex:a ex:p ex:b . ex:b ex:q ex:b");
  ExpectDepthFirstRows(graph_, "ex:a ex:p ex:b . ?x ex:q ?y");
  ExpectDepthFirstRows(graph_, "?x ex:q ?y . ex:a ex:p ex:b");
  ExpectDepthFirstRows(graph_, "?x ex:q ?y . ex:a ex:p ex:q");  // absent
}

TEST_F(PhysBindTest, FilterAtAnIntermediateStep) {
  for (const char* body :
       {"?x ex:p ?y . ?y ex:r ?v . FILTER(?v > 1) . ?y ex:q ?z",
        "?x ex:p ?y . ?y ex:r ?v . ?x ex:p ?z FILTER(?v != 2)"}) {
    ExpectDepthFirstRows(graph_, body);
    for (OpKind op : {OpKind::kInlj, OpKind::kMerge}) {
      phys::PhysicalPlan hand = Hand(body, op);
      ExpectDepthFirstRows(graph_, body, &hand);
    }
  }
}

TEST_F(PhysBindTest, MergeOverConstantSubjectWithVariablePredicate) {
  // No run is sorted by object inside ex:a's subject run, so the merge
  // scans the whole OSP run: the constant subject must still be checked.
  const std::string body = "?y ex:q ?x . ex:a ?pred ?x";
  phys::PhysicalPlan hand = Hand(body, OpKind::kMerge);
  hand.steps[1].join_pos = 2;
  hand.steps[1].join_var = bgp_.patterns[1].o.id;
  opt::Plan plan;
  plan.order = {0, 1};
  analysis::PlanVerifier verifier;
  EXPECT_GE(analysis::CountRule(verifier.Verify(hand, plan, bgp_),
                                "phys.merge-order-unavailable"),
            1u);
  ExpectDepthFirstRows(graph_, body, &hand);
}

TEST_F(PhysBindTest, MergeOnAVariableUnboundInThePrefix) {
  // The join variable ?z is bound by no earlier step, so the merge falls
  // back to INLJ (a Cartesian product here).
  const std::string body = "?x ex:q ?y . ?z ex:p ?w";
  phys::PhysicalPlan hand = Hand(body, OpKind::kMerge);
  hand.steps[1].join_pos = 0;
  hand.steps[1].join_var = bgp_.patterns[1].s.id;
  ExpectDepthFirstRows(graph_, body, &hand);
}

// Counters of the pinned query below, recorded from the per-triple
// interpreter the bind program replaced.
constexpr size_t kPinnedRows = 4;
const std::vector<uint64_t> kPinnedProduced = {20, 35, 22, 4};
const std::vector<uint64_t> kPinnedScanned = {20, 35, 22, 77};
const std::vector<uint64_t> kPinnedProbes = {1, 20, 19, 8};
// 77 bindings precede the last step, so the cap trips on its third match.
constexpr uint64_t kPinnedCap = 79;
constexpr size_t kPinnedCappedRows = 2;
const std::vector<uint64_t> kPinnedCappedProduced = {20, 35, 22, 3};
const std::vector<uint64_t> kPinnedCappedScanned = {20, 35, 22, 50};
const std::vector<uint64_t> kPinnedCappedProbes = {1, 20, 19, 6};

// A merge-heavy query's work counters and its row-capped answer. The meter
// is called once per scanned triple and produced binding, so the cap trips
// at the same row as it did before the bind program. The last merge checks
// the prefix-bound ?w on every triple of its run groups.
TEST(PhysBindCountersTest, MergeStepCountersAndRowCapArePinned) {
  const rdf::Graph graph = MergeGraph();
  auto q = sparql::ParseQuery(
      "PREFIX ex: <http://ex/>\nSELECT * WHERE { ?y ex:drv ?x . ?x ex:p ?z . "
      "?z ex:q ?w . ?x ex:p ?w }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph.dict());
  phys::PhysicalPlan pplan =
      HandPlan(bgp, {OpKind::kMerge, OpKind::kMerge, OpKind::kMerge});

  obs::ExecTrace trace;
  exec::ExecOptions opts;
  opts.trace = &trace;
  auto full = phys::ExecuteSelectPhysical(graph, *q, bgp, pplan, opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->timed_out);
  EXPECT_EQ(full->rows.size(), kPinnedRows);
  EXPECT_EQ(trace.step_rows_produced, kPinnedProduced);
  EXPECT_EQ(trace.step_rows_scanned, kPinnedScanned);
  EXPECT_EQ(trace.step_probes, kPinnedProbes);

  // A cap inside the last merge step keeps the rows produced before it.
  obs::ExecTrace capped_trace;
  opts.trace = &capped_trace;
  opts.max_intermediate_rows = kPinnedCap;
  auto capped = phys::ExecuteSelectPhysical(graph, *q, bgp, pplan, opts);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_TRUE(capped->timed_out);
  EXPECT_TRUE(capped->row_capped);
  EXPECT_EQ(capped->rows.size(), kPinnedCappedRows);
  EXPECT_EQ(capped_trace.step_rows_produced, kPinnedCappedProduced);
  EXPECT_EQ(capped_trace.step_rows_scanned, kPinnedCappedScanned);
  EXPECT_EQ(capped_trace.step_probes, kPinnedCappedProbes);
}

// ---------------------------------------------------------------------------
// End-to-end: forced operator modes produce byte-identical tables on the
// LUBM workload, across pool sizes 1 and 4.

uint64_t TableDigest(const exec::ResultTable& table) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(table.var_names.size());
  for (const std::string& name : table.var_names) {
    for (char c : name) mix(static_cast<unsigned char>(c));
  }
  mix(table.rows.size());
  for (const auto& row : table.rows) {
    for (rdf::TermId t : row) mix(t);
  }
  return h;
}

struct ModeRun {
  std::vector<uint64_t> digests;  // per query
  size_t merge_steps = 0;
};

ModeRun RunWorkload(const engine::QueryEngine& eng,
                    const std::vector<std::string>& queries,
                    util::ThreadPool* pool) {
  engine::BatchOptions opts;
  opts.pool = pool;
  engine::BatchResult batch = eng.ExecuteBatch(queries, opts);
  ModeRun run;
  EXPECT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const auto& r = batch.results[i];
    EXPECT_TRUE(r.ok()) << "query " << i << ": " << r.status().ToString();
    if (!r.ok()) {
      run.digests.push_back(0);
      continue;
    }
    EXPECT_FALSE(r->table.timed_out) << "query " << i;
    run.digests.push_back(TableDigest(r->table));
    for (const phys::PhysicalStep& st : r->phys.steps) {
      if (st.op == OpKind::kMerge) ++run.merge_steps;
    }
  }
  return run;
}

TEST(PhysWorkloadTest, ForcedOperatorsMatchInljDigestsAcrossPoolSizes) {
  datagen::LubmOptions lubm;
  lubm.universities = 3;

  std::vector<std::string> queries;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    queries.push_back(q.text);
  }

  util::ThreadPool one(1);
  util::ThreadPool four(4);

  std::vector<uint64_t> baseline;
  for (JoinMode mode : {JoinMode::kInlj, JoinMode::kAuto, JoinMode::kMerge}) {
    SCOPED_TRACE(phys::JoinModeName(mode));
    engine::EngineOptions opts;
    opts.join_mode = mode;
    auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(lubm), opts);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();

    ModeRun seq = RunWorkload(*eng, queries, &one);
    ModeRun par = RunWorkload(*eng, queries, &four);
    EXPECT_EQ(seq.digests, par.digests) << "pool size changed results";

    if (mode == JoinMode::kInlj) {
      baseline = seq.digests;
      EXPECT_EQ(seq.merge_steps, 0u);
    } else {
      EXPECT_EQ(seq.digests, baseline)
          << "operator choice changed result bytes";
    }
    // Forced merge must actually exercise the materializing operator —
    // otherwise the digest equality above is vacuous.
    if (mode == JoinMode::kMerge) {
      EXPECT_GT(seq.merge_steps, 0u);
    }
  }
}

}  // namespace
}  // namespace shapestats
