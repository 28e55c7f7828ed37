// Tests for src/opt (Algorithm 1) and src/exec (BGP executor), including a
// property sweep checking that every plan order produces the same result
// cardinality.
#include <gtest/gtest.h>

#include <numeric>

#include "card/estimator.h"
#include "exec/executor.h"
#include "exec/select_executor.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/planner.h"
#include "rdf/turtle.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/random.h"

namespace shapestats {
namespace {

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
ex:s1 a ex:Student ; ex:takes ex:c1, ex:c2 ; ex:advisor ex:p1 ; ex:name "a" .
ex:s2 a ex:Student ; ex:takes ex:c1 ; ex:advisor ex:p1 .
ex:s3 a ex:Student ; ex:takes ex:c2 ; ex:advisor ex:p2 .
ex:p1 a ex:Prof ; ex:teaches ex:c1 ; ex:name "b" .
ex:p2 a ex:Prof ; ex:teaches ex:c2 .
ex:c1 a ex:Course .
ex:c2 a ex:Course .
)";

class PlanExecFixture : public ::testing::Test {
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

  sparql::ParsedQuery Parse(const std::string& body) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE {" +
                                body + "}");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? std::move(q).value() : sparql::ParsedQuery{};
  }

  sparql::EncodedBgp Encode(const std::string& body) {
    return sparql::EncodeBgp(Parse(body), graph_.dict());
  }

  rdf::Graph graph_;
  stats::GlobalStats gs_;
  shacl::ShapesGraph shapes_;
};

TEST_F(PlanExecFixture, PlanIsPermutation) {
  card::CardinalityEstimator est(gs_, nullptr, graph_.dict(),
                                 card::StatsMode::kGlobal);
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = opt::PlanJoinOrder(bgp, est);
  ASSERT_EQ(plan.order.size(), 4u);
  std::vector<uint32_t> sorted = plan.order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(plan.step_estimates.size(), 4u);
  EXPECT_EQ(plan.provider, "GS");
  EXPECT_FALSE(plan.has_cartesian);
}

TEST_F(PlanExecFixture, StartsWithCheapestPattern) {
  card::CardinalityEstimator est(gs_, nullptr, graph_.dict(),
                                 card::StatsMode::kGlobal);
  // Prof type pattern (2 instances) is the cheapest.
  auto bgp = Encode("?x ex:takes ?c . ?p a ex:Prof . ?x ex:advisor ?p");
  opt::Plan plan = opt::PlanJoinOrder(bgp, est);
  EXPECT_EQ(plan.order[0], 1u);
}

TEST_F(PlanExecFixture, CostIsSumOfStepEstimates) {
  card::CardinalityEstimator est(gs_, nullptr, graph_.dict(),
                                 card::StatsMode::kGlobal);
  auto bgp = Encode("?x a ex:Student . ?x ex:takes ?c . ?x ex:advisor ?p");
  opt::Plan plan = opt::PlanJoinOrder(bgp, est);
  double sum = std::accumulate(plan.step_estimates.begin(),
                               plan.step_estimates.end(), 0.0);
  EXPECT_DOUBLE_EQ(plan.total_cost, sum);
}

TEST_F(PlanExecFixture, CartesianFlaggedForDisconnectedBgp) {
  card::CardinalityEstimator est(gs_, nullptr, graph_.dict(),
                                 card::StatsMode::kGlobal);
  auto bgp = Encode("?x ex:takes ?c . ?y ex:teaches ?d");
  opt::Plan plan = opt::PlanJoinOrder(bgp, est);
  EXPECT_TRUE(plan.has_cartesian);
}

TEST_F(PlanExecFixture, ExecutorCountsMatches) {
  auto bgp = Encode("?x ex:takes ?c");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 4u);
  ASSERT_EQ(r->step_cards.size(), 1u);
  EXPECT_EQ(r->step_cards[0], 4u);
}

TEST_F(PlanExecFixture, ExecutorJoins) {
  // Students of p1: s1, s2 -> takes: s1 x2, s2 x1 = 3 rows.
  auto bgp = Encode("?x ex:advisor ex:p1 . ?x ex:takes ?c");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 3u);
  EXPECT_EQ(r->step_cards[0], 2u);
  EXPECT_EQ(r->step_cards[1], 3u);
}

TEST_F(PlanExecFixture, TriangleQuery) {
  // Students taking a course taught by their advisor: s1-c1-p1, s2-c1-p1,
  // s3-c2-p2.
  auto bgp = Encode("?x ex:advisor ?p . ?p ex:teaches ?c . ?x ex:takes ?c");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 3u);
}

TEST_F(PlanExecFixture, RepeatedVariableInPattern) {
  // No triple has subject == object here.
  auto bgp = Encode("?x ex:takes ?x");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 0u);
}

TEST_F(PlanExecFixture, MissingConstantYieldsEmpty) {
  auto bgp = Encode("?x ex:ghost ?c . ?x ex:takes ?c");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 0u);
}

TEST_F(PlanExecFixture, CartesianProductExecution) {
  auto bgp = Encode("?x a ex:Prof . ?c a ex:Course");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 4u);  // 2 x 2
}

TEST_F(PlanExecFixture, LimitStopsEarly) {
  exec::ExecOptions opts;
  opts.limit = 2;
  auto bgp = Encode("?x ex:takes ?c");
  auto r = exec::ExecuteBgp(graph_, bgp, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 2u);
}

TEST_F(PlanExecFixture, RowBudgetTimesOut) {
  exec::ExecOptions opts;
  opts.max_intermediate_rows = 2;
  auto bgp = Encode("?s ?p ?o . ?s2 ?p2 ?o2");
  auto r = exec::ExecuteBgp(graph_, bgp, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->timed_out);

  // The same budget binds both SELECT entry points.
  sparql::ParsedQuery q = Parse("?s ?p ?o . ?s2 ?p2 ?o2");
  auto sel = exec::ExecuteSelect(graph_, q, bgp, {0, 1}, opts);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_TRUE(sel->timed_out);
  EXPECT_FALSE(sel->cancelled);

  opt::Plan plan;
  plan.order = {0, 1};
  phys::PlannerOptions merge;
  merge.mode = phys::JoinMode::kMerge;
  auto ph = phys::ExecuteSelectPhysical(
      graph_, q, bgp, phys::PlanPhysical(bgp, plan, graph_, merge), opts);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  EXPECT_TRUE(ph->timed_out);
  EXPECT_FALSE(ph->cancelled);
}

TEST_F(PlanExecFixture, RejectsBadOrder) {
  auto bgp = Encode("?x ex:takes ?c . ?x ex:advisor ?p");
  EXPECT_FALSE(exec::ExecuteBgp(graph_, bgp, std::vector<uint32_t>{0}).ok());
  EXPECT_FALSE(exec::ExecuteBgp(graph_, bgp, std::vector<uint32_t>{0, 0}).ok());
  EXPECT_FALSE(exec::ExecuteBgp(graph_, bgp, std::vector<uint32_t>{0, 5}).ok());
  // Long orders too: a repeated index and one past the end fail with the
  // same error.
  for (uint32_t n : {64u, 65u}) {
    std::string body;
    for (uint32_t i = 0; i < n; ++i) {
      body += "?x ex:takes ?c" + std::to_string(i) + " . ";
    }
    const sparql::EncodedBgp big = Encode(body);
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    for (uint32_t last : {0u, n}) {
      order.back() = last;
      auto r = exec::ExecuteBgp(graph_, big, order);
      ASSERT_FALSE(r.ok()) << n << " patterns, last index " << last;
      EXPECT_EQ(r.status().ToString(),
                "InvalidArgument: order is not a permutation of patterns");
    }
  }
}

TEST_F(PlanExecFixture, RejectsUnfinalizedGraph) {
  rdf::Graph g;
  auto bgp = Encode("?x ex:takes ?c");
  EXPECT_FALSE(exec::ExecuteBgp(g, bgp).ok());
}

// Property test: result cardinality is order-invariant; only intermediate
// sizes change. Sweeps several queries x several random orders.
class OrderInvarianceTest : public PlanExecFixture,
                            public ::testing::WithParamInterface<const char*> {};

TEST_P(OrderInvarianceTest, AllOrdersAgree) {
  auto bgp = Encode(GetParam());
  const size_t n = bgp.patterns.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  auto baseline = exec::ExecuteBgp(graph_, bgp, order);
  ASSERT_TRUE(baseline.ok());
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(order);
    auto r = exec::ExecuteBgp(graph_, bgp, order);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->num_results, baseline->num_results);
    EXPECT_EQ(r->step_cards.back(), baseline->num_results);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, OrderInvarianceTest,
    ::testing::Values(
        "?x a ex:Student . ?x ex:takes ?c",
        "?x ex:advisor ?p . ?p ex:teaches ?c . ?x ex:takes ?c",
        "?x a ex:Student . ?x ex:advisor ?p . ?p a ex:Prof . ?p ex:name ?n",
        "?x ex:takes ?c . ?y ex:takes ?c . ?x ex:advisor ?p",
        "?x a ex:Prof . ?c a ex:Course",
        "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor "
        "?p . ?p ex:name ?n"));

// Plans from every provider must execute to the same result count.
TEST_F(PlanExecFixture, GsAndSsPlansAgreeOnResults) {
  card::CardinalityEstimator gs_est(gs_, nullptr, graph_.dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(gs_, &shapes_, graph_.dict(),
                                    card::StatsMode::kShape);
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  auto gs_plan = opt::PlanJoinOrder(bgp, gs_est);
  auto ss_plan = opt::PlanJoinOrder(bgp, ss_est);
  auto gr = exec::ExecuteBgp(graph_, bgp, gs_plan.order);
  auto sr = exec::ExecuteBgp(graph_, bgp, ss_plan.order);
  ASSERT_TRUE(gr.ok());
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(gr->num_results, sr->num_results);
}

TEST_F(PlanExecFixture, SsEqualsGsWithoutTypePatterns) {
  // Paper: "when the query does not contain any type-defined triple, only
  // global statistics are used" — identical plans.
  card::CardinalityEstimator gs_est(gs_, nullptr, graph_.dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(gs_, &shapes_, graph_.dict(),
                                    card::StatsMode::kShape);
  auto bgp = Encode("?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  auto gs_plan = opt::PlanJoinOrder(bgp, gs_est);
  auto ss_plan = opt::PlanJoinOrder(bgp, ss_est);
  EXPECT_EQ(gs_plan.order, ss_plan.order);
  EXPECT_DOUBLE_EQ(gs_plan.total_cost, ss_plan.total_cost);
}

TEST_F(PlanExecFixture, TrueCostSumsStepCards) {
  auto bgp = Encode("?x ex:advisor ex:p1 . ?x ex:takes ?c");
  auto r = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->TrueCost(), 2u + 3u);
}

}  // namespace
}  // namespace shapestats
