// Tests for the SPARQL extensions (FILTER / DISTINCT / ORDER BY / OFFSET /
// LIMIT), the materializing SELECT executor, and the QueryEngine facade.
#include <gtest/gtest.h>

#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "exec/select_executor.h"
#include "phys/physical_plan.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"

namespace shapestats {
namespace {

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
ex:a a ex:Item ; ex:price 10 ; ex:label "alpha" .
ex:b a ex:Item ; ex:price 25 ; ex:label "beta" .
ex:c a ex:Item ; ex:price 25 ; ex:label "gamma" .
ex:d a ex:Item ; ex:price 40 ; ex:label "delta" .
ex:e a ex:Item ; ex:label "epsilon" .
)";

class SelectFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kData, &graph_).ok());
    graph_.Finalize();
  }

  exec::ResultTable Run(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    auto r = exec::ExecuteSelect(graph_, *q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : exec::ResultTable{};
  }

  std::string Cell(const exec::ResultTable& t, size_t row, size_t col) {
    return graph_.dict().term(t.rows[row][col]).lexical;
  }

  rdf::Graph graph_;
};

// --- parser-level coverage of the new syntax ---

TEST_F(SelectFixture, ParserAcceptsFilterForms) {
  for (const char* q : {
           "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:price ?p . FILTER(?p > 20) }",
           "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:price ?p . FILTER(?p >= 20) . }",
           "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:price ?p FILTER(?p != 25) }",
           "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:label ?l . FILTER(?l = \"beta\") }",
           "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:price ?p . ?y ex:price ?q . FILTER(?p < ?q) }",
       }) {
    EXPECT_TRUE(sparql::ParseQuery(q).ok()) << q;
  }
}

TEST_F(SelectFixture, ParserRejectsBadFilters) {
  for (const char* q : {
           "SELECT * WHERE { ?x ?p ?o . FILTER(?x ~ ?o) }",   // bad operator
           "SELECT * WHERE { ?x ?p ?o . FILTER ?x = ?o }",    // missing parens
           "SELECT * WHERE { ?x ?p ?o . FILTER(?x = ?o }",    // unclosed
           "SELECT * WHERE { ?x ?p ?o . FILTER(?z = 1) }",    // unknown var
       }) {
    EXPECT_FALSE(sparql::ParseQuery(q).ok()) << q;
  }
}

TEST_F(SelectFixture, ParserAcceptsModifiers) {
  auto q = sparql::ParseQuery(
      "SELECT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x) LIMIT 3 OFFSET 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->order_by.has_value());
  EXPECT_TRUE(q->order_by->descending);
  EXPECT_EQ(q->order_by->var.name, "x");
  EXPECT_EQ(q->limit, 3u);
  EXPECT_EQ(q->offset, 2u);
  // OFFSET before LIMIT also parses.
  EXPECT_TRUE(sparql::ParseQuery("SELECT * WHERE { ?s ?p ?o } OFFSET 1 LIMIT 2").ok());
  // ORDER BY a variable not in the BGP is rejected.
  EXPECT_FALSE(sparql::ParseQuery("SELECT * WHERE { ?s ?p ?o } ORDER BY ?z").ok());
}

// --- executor semantics ---

TEST_F(SelectFixture, NumericFilterGreaterThan) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p > 20) }");
  EXPECT_EQ(t.rows.size(), 3u);  // b, c, d
  EXPECT_EQ(t.bgp_matches, 3u);
}

TEST_F(SelectFixture, EqualityFilterOnString) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE "
      "{ ?x ex:label ?l . FILTER(?l = \"beta\") }");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(Cell(t, 0, 0), "http://ex/b");
}

TEST_F(SelectFixture, FilterBetweenVariables) {
  // Pairs with strictly increasing price: (10,25)x2, (10,40), (25,40)x2 = 5.
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
      "{ ?x ex:price ?p . ?y ex:price ?q . FILTER(?p < ?q) }");
  EXPECT_EQ(t.rows.size(), 5u);
}

TEST_F(SelectFixture, FilterAgainstAbsentConstantIsNotAnError) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE "
      "{ ?x ex:label ?l . FILTER(?l = \"no-such-label\") }");
  EXPECT_TRUE(t.rows.empty());
  auto t2 = Run(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE "
      "{ ?x ex:label ?l . FILTER(?l != \"no-such-label\") }");
  EXPECT_EQ(t2.rows.size(), 5u);
}

TEST_F(SelectFixture, ConstantOnlyFilterShortCircuits) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p . FILTER(1 > 2) }");
  EXPECT_TRUE(t.rows.empty());
  EXPECT_EQ(t.bgp_matches, 0u);
}

TEST_F(SelectFixture, ProjectionSelectsColumns) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?l WHERE { ?x ex:label ?l . ?x ex:price ?p }");
  ASSERT_EQ(t.var_names.size(), 1u);
  EXPECT_EQ(t.var_names[0], "l");
  EXPECT_EQ(t.rows.size(), 4u);
}

TEST_F(SelectFixture, SelectStarKeepsAllVariables) {
  auto t = Run("PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:price ?p }");
  EXPECT_EQ(t.var_names.size(), 2u);
}

TEST_F(SelectFixture, DistinctRemovesDuplicateRows) {
  auto all = Run("PREFIX ex: <http://ex/> SELECT ?p WHERE { ?x ex:price ?p }");
  EXPECT_EQ(all.rows.size(), 4u);
  auto distinct =
      Run("PREFIX ex: <http://ex/> SELECT DISTINCT ?p WHERE { ?x ex:price ?p }");
  EXPECT_EQ(distinct.rows.size(), 3u);  // 10, 25, 40
}

TEST_F(SelectFixture, OrderByNumericAscending) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?x ?p WHERE { ?x ex:price ?p } ORDER BY ?p");
  ASSERT_EQ(t.rows.size(), 4u);
  EXPECT_EQ(Cell(t, 0, 1), "10");
  EXPECT_EQ(Cell(t, 3, 1), "40");
}

TEST_F(SelectFixture, OrderByDescendingWithLimit) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?p WHERE { ?x ex:price ?p } "
      "ORDER BY DESC(?p) LIMIT 2");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(Cell(t, 0, 0), "40");
  EXPECT_EQ(Cell(t, 1, 0), "25");
}

TEST_F(SelectFixture, OrderByLexicographicStrings) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?l WHERE { ?x ex:label ?l } ORDER BY ?l");
  ASSERT_EQ(t.rows.size(), 5u);
  EXPECT_EQ(Cell(t, 0, 0), "alpha");
  EXPECT_EQ(Cell(t, 4, 0), "gamma");
}

TEST_F(SelectFixture, OffsetSkipsRows) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?l WHERE { ?x ex:label ?l } "
      "ORDER BY ?l LIMIT 2 OFFSET 1");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(Cell(t, 0, 0), "beta");
  EXPECT_EQ(Cell(t, 1, 0), "delta");
}

TEST_F(SelectFixture, OffsetPastEndYieldsEmpty) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?l WHERE { ?x ex:label ?l } OFFSET 99");
  EXPECT_TRUE(t.rows.empty());
}

TEST_F(SelectFixture, LimitWithoutOrderStopsEarly) {
  auto t = Run("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ?p ?o } LIMIT 3");
  EXPECT_EQ(t.rows.size(), 3u);
  // Early stop: bgp_matches should not exceed offset+limit.
  EXPECT_LE(t.bgp_matches, 3u);
}

TEST_F(SelectFixture, DistinctOrderByAndOffsetCompose) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT DISTINCT ?p WHERE { ?x ex:price ?p } "
      "ORDER BY DESC(?p) OFFSET 1 LIMIT 1");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(Cell(t, 0, 0), "25");
}

TEST_F(SelectFixture, ToStringRendersTable) {
  auto t = Run(
      "PREFIX ex: <http://ex/> SELECT ?l WHERE { ?x ex:label ?l } ORDER BY ?l");
  std::string s = t.ToString(graph_.dict(), 2);
  EXPECT_NE(s.find("?l"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("5 rows total"), std::string::npos);
}

// --- QueryEngine facade ---

class EngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LubmOptions opts;
    opts.universities = 1;
    engine_ = new engine::QueryEngine(
        std::move(engine::QueryEngine::Open(datagen::GenerateLubm(opts))).value());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static engine::QueryEngine* engine_;
};
engine::QueryEngine* EngineFixture::engine_ = nullptr;

TEST_F(EngineFixture, OpensWithShapeStatistics) {
  EXPECT_GT(engine_->graph().NumTriples(), 10000u);
  EXPECT_TRUE(engine_->shapes().FullyAnnotated());
  EXPECT_GT(engine_->global_stats().num_triples, 0u);
}

TEST_F(EngineFixture, ExecutesQueryWithShapePlan) {
  auto r = engine_->Execute(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n } LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->plan.provider, "SS");
  EXPECT_EQ(r->table.rows.size(), 10u);
  EXPECT_EQ(r->table.var_names.size(), 2u);
  EXPECT_EQ(r->shape, sparql::QueryShape::kStar);
  EXPECT_GT(r->total_ms, 0.0);
}

TEST_F(EngineFixture, ExplainListsPlannedOrder) {
  auto plan = engine_->Explain(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT * WHERE { ?x ub:advisor ?p . ?x a ub:GraduateStudent }");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SS optimizer"), std::string::npos);
  EXPECT_NE(plan->find("1."), std::string::npos);
  EXPECT_NE(plan->find("estimated cost"), std::string::npos);
}

TEST_F(EngineFixture, ParseErrorsSurfaceAsStatus) {
  auto r = engine_->Execute("SELECT * WHERE { ?x ?p }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(EngineFixture, MoveSemanticsKeepEstimatorValid) {
  datagen::LubmOptions opts;
  opts.universities = 1;
  auto opened = engine::QueryEngine::Open(datagen::GenerateLubm(opts));
  ASSERT_TRUE(opened.ok());
  engine::QueryEngine moved = std::move(opened).value();
  engine::QueryEngine moved_again = std::move(moved);
  auto r = moved_again.Execute("SELECT * WHERE { ?s ?p ?o } LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows.size(), 1u);
}

TEST(EngineOptionsTest, GlobalStatsAndTextualModes) {
  datagen::LubmOptions dopts;
  dopts.universities = 1;
  rdf::Graph g = datagen::GenerateLubm(dopts);
  const std::string query =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT * WHERE { ?x a ub:GraduateStudent . ?x ub:advisor ?p }";

  engine::EngineOptions gs_opts;
  gs_opts.optimizer = engine::EngineOptions::Optimizer::kGlobalStats;
  auto gs_engine = engine::QueryEngine::Open(std::move(g), gs_opts);
  ASSERT_TRUE(gs_engine.ok());
  auto gs_result = gs_engine->Execute(query);
  ASSERT_TRUE(gs_result.ok());
  EXPECT_EQ(gs_result->plan.provider, "GS");
  EXPECT_EQ(gs_engine->shapes().NumNodeShapes(), 0u);

  rdf::Graph g2 = datagen::GenerateLubm(dopts);
  engine::EngineOptions tx_opts;
  tx_opts.optimizer = engine::EngineOptions::Optimizer::kTextual;
  auto tx_engine = engine::QueryEngine::Open(std::move(g2), tx_opts);
  ASSERT_TRUE(tx_engine.ok());
  auto tx_result = tx_engine->Execute(query);
  ASSERT_TRUE(tx_result.ok());
  EXPECT_EQ(tx_result->plan.provider, "textual");
  EXPECT_EQ(tx_result->table.rows.size(), gs_result->table.rows.size());
}

TEST(EngineLimitsTest, RowCappedCountAndAskAreFlaggedTruncated) {
  datagen::LubmOptions dopts;
  dopts.universities = 1;
  engine::EngineOptions opts;
  opts.exec.max_intermediate_rows = 10;
  auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  const std::string prefix =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

  // Hundreds of solutions: the 10-row budget truncates the count.
  auto count = eng->Execute(
      prefix +
      "SELECT (COUNT(*) AS ?n) WHERE { ?x a ub:GraduateStudent . "
      "?x ub:advisor ?p }");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_TRUE(count->count.has_value());
  EXPECT_TRUE(count->table.timed_out);
  EXPECT_FALSE(count->table.cancelled);

  // No solution exists, so the probe exhausts the budget before answering:
  // its answer is unknown, which is an error naming the cause, never false.
  auto ask = eng->Execute(
      prefix +
      "ASK { ?x a ub:GraduateStudent . ?x ub:name ?n . "
      "FILTER(?n = \"no such name\") }");
  ASSERT_FALSE(ask.ok());
  EXPECT_EQ(ask.status().code(), StatusCode::kAborted);
  EXPECT_NE(ask.status().message().find("row-cap"), std::string::npos)
      << ask.status().ToString();
}

// LIMIT and OFFSET apply to COUNT(*)'s one solution row, never to the rows
// it counts: LIMIT >= 1 keeps the full count, and the forms that drop the
// row are rejected rather than answered with a truncated count.
TEST(EngineCountTest, LimitAndOffsetApplyToTheAggregateRow) {
  datagen::LubmOptions dopts;
  dopts.universities = 1;
  const std::string where =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT (COUNT(*) AS ?c) WHERE { ?x a ub:GraduateStudent . "
      "?x ub:advisor ?p }";
  for (phys::JoinMode mode : {phys::JoinMode::kAuto, phys::JoinMode::kInlj,
                              phys::JoinMode::kMerge}) {
    SCOPED_TRACE(phys::JoinModeName(mode));
    engine::EngineOptions opts;
    opts.join_mode = mode;
    auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    auto full = eng->Execute(where);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full->count.has_value());
    EXPECT_GT(*full->count, 5u);

    for (const char* modifier : {" LIMIT 1", " LIMIT 5", " LIMIT 1 OFFSET 0"}) {
      SCOPED_TRACE(modifier);
      auto r = eng->Execute(where + modifier);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->count.has_value());
      EXPECT_EQ(*r->count, *full->count);
      EXPECT_FALSE(r->table.timed_out);
    }
    for (const char* modifier : {" LIMIT 0", " OFFSET 1", " LIMIT 5 OFFSET 1"}) {
      SCOPED_TRACE(modifier);
      auto r = eng->Execute(where + modifier);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(EngineOpenTest, RejectsUnfinalizedGraph) {
  rdf::Graph g;
  EXPECT_FALSE(engine::QueryEngine::Open(std::move(g)).ok());
}

TEST(EngineOpenTest, MissingFileSurfacesIOError) {
  auto r = engine::QueryEngine::FromNTriplesFile("/no/such/file.nt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace shapestats
