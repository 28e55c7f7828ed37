// Tests for the extension features: Extended Characteristic Sets (pair
// statistics) and ASK/COUNT.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/charsets/char_pairs.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "exec/executor.h"
#include "opt/join_order.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"

namespace shapestats {
namespace {

constexpr const char* kChainData = R"(
@prefix ex: <http://ex/> .
ex:s1 a ex:Student ; ex:takes ex:c1, ex:c2 .
ex:s2 a ex:Student ; ex:takes ex:c1 .
ex:s3 a ex:Student ; ex:takes ex:c2 ; ex:name "x" .
ex:c1 a ex:Course ; ex:taughtBy ex:p1 .
ex:c2 a ex:Course ; ex:taughtBy ex:p1 .
ex:p1 a ex:Prof ; ex:name "p" .
)";

class ChainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kChainData, &graph_).ok());
    graph_.Finalize();
    auto cs = baselines::CharSetIndex::Build(graph_);
    ASSERT_TRUE(cs.ok());
    cs_ = std::make_unique<baselines::CharSetIndex>(std::move(cs).value());
    auto pairs = baselines::CharPairIndex::Build(graph_, *cs_);
    ASSERT_TRUE(pairs.ok());
    pairs_ = std::make_unique<baselines::CharPairIndex>(std::move(pairs).value());
  }

  sparql::EncodedBgp Encode(const std::string& body) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE {" +
                                body + "}");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return sparql::EncodeBgp(*q, graph_.dict());
  }

  rdf::Graph graph_;
  std::unique_ptr<baselines::CharSetIndex> cs_;
  std::unique_ptr<baselines::CharPairIndex> pairs_;
};

TEST_F(ChainFixture, BuildsPairStatistics) {
  EXPECT_GT(pairs_->NumPairs(), 0u);
  EXPECT_GT(pairs_->MemoryBytes(), cs_->MemoryBytes());
  EXPECT_GE(pairs_->build_ms(), cs_->build_ms());
  EXPECT_EQ(pairs_->name(), "ECS");
}

TEST_F(ChainFixture, ChainEstimateIsExactOnTwoPatternChains) {
  // (?x ex:takes ?c)(?c ex:taughtBy ?p): every takes-edge continues to p1,
  // so the true count is 4.
  auto bgp = Encode("?x ex:takes ?c . ?c ex:taughtBy ?p");
  auto truth = exec::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(truth.ok());
  double est = pairs_->EstimateResultCardinality(bgp);
  EXPECT_DOUBLE_EQ(est, static_cast<double>(truth->num_results));
  // ECS is at least as accurate as the plain-CS independence estimate.
  double cs_est = cs_->EstimateResultCardinality(bgp);
  double t = static_cast<double>(truth->num_results);
  EXPECT_LE(std::fabs(est - t), std::fabs(cs_est - t) + 1e-9);
}

TEST_F(ChainFixture, PairJoinEstimateBeatsIndependence) {
  auto bgp = Encode("?x ex:takes ?c . ?c ex:taughtBy ?p");
  auto est = pairs_->EstimateAll(bgp);
  double pair_join =
      pairs_->EstimateJoin(bgp.patterns[0], est[0], bgp.patterns[1], est[1]);
  auto truth = exec::ExecuteBgp(graph_, bgp);
  EXPECT_DOUBLE_EQ(pair_join, static_cast<double>(truth->num_results));
  // Reversed operand order hits the mirrored branch.
  double mirrored =
      pairs_->EstimateJoin(bgp.patterns[1], est[1], bgp.patterns[0], est[0]);
  EXPECT_DOUBLE_EQ(mirrored, pair_join);
}

TEST_F(ChainFixture, NonChainJoinsDelegateToBase) {
  auto bgp = Encode("?x ex:takes ?c . ?x ex:name ?n");  // SS join
  auto est = pairs_->EstimateAll(bgp);
  double from_pairs =
      pairs_->EstimateJoin(bgp.patterns[0], est[0], bgp.patterns[1], est[1]);
  double from_base =
      cs_->EstimateJoin(bgp.patterns[0], est[0], bgp.patterns[1], est[1]);
  EXPECT_DOUBLE_EQ(from_pairs, from_base);
}

TEST_F(ChainFixture, PairPlansExecuteCorrectly) {
  auto bgp = Encode("?x a ex:Student . ?x ex:takes ?c . ?c ex:taughtBy ?p");
  auto plan = opt::PlanJoinOrder(bgp, *pairs_);
  auto r = exec::ExecuteBgp(graph_, bgp, plan.order);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 4u);
}

// --------------------------------------------------------------- ASK/COUNT

class AskCountFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::LubmOptions opts;
    opts.universities = 1;
    auto engine = engine::QueryEngine::Open(datagen::GenerateLubm(opts));
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<engine::QueryEngine>(std::move(engine).value());
  }
  std::unique_ptr<engine::QueryEngine> engine_;
};

TEST_F(AskCountFixture, AskTrueAndFalse) {
  auto yes = engine_->Execute(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "ASK { ?x a ub:FullProfessor }");
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  ASSERT_TRUE(yes->ask.has_value());
  EXPECT_TRUE(*yes->ask);

  auto no = engine_->Execute(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "ASK { ?x a ub:FullProfessor . ?x ub:takesCourse ?c }");
  ASSERT_TRUE(no.ok());
  ASSERT_TRUE(no->ask.has_value());
  EXPECT_FALSE(*no->ask);  // professors take no courses
}

TEST_F(AskCountFixture, CountMatchesSelectCardinality) {
  const char* prefix =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
  auto select = engine_->Execute(std::string(prefix) +
                                 "SELECT * WHERE { ?x a ub:GraduateStudent . "
                                 "?x ub:advisor ?p }");
  ASSERT_TRUE(select.ok());
  auto count = engine_->Execute(std::string(prefix) +
                                "SELECT (COUNT(*) AS ?n) WHERE "
                                "{ ?x a ub:GraduateStudent . ?x ub:advisor ?p }");
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(count->count.has_value());
  EXPECT_EQ(*count->count, select->table.rows.size());
}

TEST_F(AskCountFixture, CountRespectsFilters) {
  const char* prefix =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
  auto all = engine_->Execute(std::string(prefix) +
                              "SELECT (COUNT(*) AS ?n) WHERE "
                              "{ ?x a ub:FullProfessor . ?x ub:name ?m }");
  auto filtered = engine_->Execute(
      std::string(prefix) +
      "SELECT (COUNT(*) AS ?n) WHERE { ?x a ub:FullProfessor . ?x ub:name ?m "
      ". FILTER(?m = \"FullProfessor0\") }");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(*filtered->count, *all->count);
  EXPECT_GT(*filtered->count, 0u);
}

TEST(AskCountParseTest, SyntaxVariants) {
  EXPECT_TRUE(sparql::ParseQuery("ASK { ?s ?p ?o }").ok());
  EXPECT_TRUE(sparql::ParseQuery("ASK WHERE { ?s ?p ?o }").ok());
  auto count = sparql::ParseQuery("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }");
  ASSERT_TRUE(count.ok());
  EXPECT_TRUE(count->count_aggregate);
  ASSERT_EQ(count->projection.size(), 1u);
  EXPECT_EQ(count->projection[0].name, "n");
  for (const char* bad : {
           "SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o }",   // unsupported aggregate
           "SELECT (COUNT(*) ?n) WHERE { ?s ?p ?o }",    // missing AS
           "SELECT (COUNT(*) AS ?n WHERE { ?s ?p ?o }",  // missing ')'
       }) {
    EXPECT_FALSE(sparql::ParseQuery(bad).ok()) << bad;
  }
}

}  // namespace
}  // namespace shapestats
