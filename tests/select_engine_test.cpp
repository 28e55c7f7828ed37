// Tests for the SPARQL extensions (FILTER / DISTINCT / ORDER BY / OFFSET /
// LIMIT), the materializing SELECT executor, and the QueryEngine facade.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "exec/filter_eval.h"
#include "exec/select_executor.h"
#include "phys/physical_plan.h"
#include "rdf/ntriples.h"
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
    return std::string(graph_.dict().term(t.rows[row][col]).lexical);
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

// --- comparison semantics, pinned ---
//
// FILTER and ORDER BY compare two terms numerically when both are literals
// whose whole lexical form strtod accepts (leading whitespace, a sign, an
// exponent and hex included), by term equality for = and !=, and by
// lexical form otherwise. The expected results below were recorded from
// that implementation and must not move.

// Object i of <http://ex/vi> <http://ex/val>, as N-Triples and as a SPARQL
// constant: seven literals, one escaped literal ("\t5", numeric once
// unescaped) and an IRI whose text equals a literal's.
constexpr const char* kCompareValues[][2] = {
    {"\"5\"", "\"5\""},       {"\"+5\"", "\"+5\""},     {"\" 5\"", "\" 5\""},
    {"\"1e3\"", "\"1e3\""},   {"\"1e\"", "\"1e\""},     {"\"0x10\"", "\"0x10\""},
    {"\"abc\"", "\"abc\""},   {"\"\\t5\"", "\"\\t5\""}, {"<5>", "<5>"},
    {"\"1000\"", "\"1000\""}, {"\"16\"", "\"16\""},
};

// Numbers at strtod's edges: leading whitespace, hex, infinities and NaN
// are numbers; overflow and underflow set ERANGE, so "1e999" and "1e-400"
// compare by their text.
constexpr const char* kEdgeValues[][2] = {
    {"\" 26\"", "\" 26\""},     {"\"0x1A\"", "\"0x1A\""},
    {"\"26\"", "\"26\""},       {"\"inf\"", "\"inf\""},
    {"\"-inf\"", "\"-inf\""},   {"\"nan\"", "\"nan\""},
    {"\"1e999\"", "\"1e999\""}, {"\"1e-400\"", "\"1e-400\""},
    {"\"0\"", "\"0\""},         {"\"abc\"", "\"abc\""},
};

class CompareSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override { Load(kCompareValues); }

  // Subject <http://ex/v{i}> gets value i.
  template <size_t N>
  void Load(const char* const (&values)[N][2]) {
    std::string nt;
    for (size_t i = 0; i < N; ++i) {
      nt += "<http://ex/v" + std::to_string(i) + "> <http://ex/val> " +
            values[i][0] + " .\n";
      constants_.push_back(values[i][1]);
    }
    ASSERT_TRUE(rdf::ParseNTriples(nt, &graph_).ok());
    graph_.Finalize();
  }

  // The value index of subject id `id`.
  size_t Index(rdf::TermId id) const {
    for (size_t i = 0; i < constants_.size(); ++i) {
      if (graph_.dict().FindIri("http://ex/v" + std::to_string(i)) == id) return i;
    }
    ADD_FAILURE() << "unknown subject " << id;
    return 0;
  }

  exec::ResultTable Run(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    auto r = exec::ExecuteSelect(graph_, *q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : exec::ResultTable{};
  }

  // Row i, column j is '1' when value i `op` value j holds, both bound to
  // variables.
  std::vector<std::string> VarMatrix(const std::string& op) {
    const size_t n = constants_.size();
    std::vector<std::string> m(n, std::string(n, '0'));
    const exec::ResultTable t =
        Run("SELECT ?a ?b WHERE { ?a <http://ex/val> ?x . ?b <http://ex/val> ?y . "
            "FILTER(?x " + op + " ?y) }");
    for (const std::vector<rdf::TermId>& row : t.rows) {
      m[Index(row[0])][Index(row[1])] = '1';
    }
    return m;
  }

  // The same with value j written as a query constant.
  std::vector<std::string> ConstantMatrix(const std::string& op) {
    const size_t n = constants_.size();
    std::vector<std::string> m(n, std::string(n, '0'));
    for (size_t j = 0; j < n; ++j) {
      const exec::ResultTable t =
          Run(std::string("SELECT ?a WHERE { ?a <http://ex/val> ?x . FILTER(?x ") + op +
              " " + constants_[j] + ") }");
      for (const std::vector<rdf::TermId>& row : t.rows) m[Index(row[0])][j] = '1';
    }
    return m;
  }

  // The value indices in the order ORDER BY `order` puts them.
  std::vector<size_t> Ordered(const std::string& order) {
    const exec::ResultTable t =
        Run("SELECT ?a WHERE { ?a <http://ex/val> ?x } ORDER BY " + order);
    std::vector<size_t> out;
    for (const std::vector<rdf::TermId>& row : t.rows) out.push_back(Index(row[0]));
    return out;
  }

  rdf::Graph graph_;
  std::vector<std::string> constants_;  // value i as a query constant
};

TEST_F(CompareSemanticsTest, EqualityIsNumericOrByTerm) {
  // Values: 5, +5, " 5", 1e3, 1e, 0x10, abc, "\t5", <5>, 1000, 16.
  const std::vector<std::string> want = {
      "11100001000", "11100001000", "11100001000", "00010000010",
      "00001000000", "00000100001", "00000010000", "11100001000",
      "00000000100", "00010000010", "00000100001",
  };
  EXPECT_EQ(VarMatrix("="), want);
  EXPECT_EQ(ConstantMatrix("="), want);
  std::vector<std::string> ne = want;
  for (std::string& row : ne) {
    for (char& c : row) c = c == '1' ? '0' : '1';
  }
  EXPECT_EQ(VarMatrix("!="), ne);
  EXPECT_EQ(ConstantMatrix("!="), ne);
}

TEST_F(CompareSemanticsTest, LessThanIsNumericOrLexical) {
  // "1e" < "5" by text; the IRI <5> compares by its text "5" as well.
  const std::vector<std::string> want = {
      "00010110011", "00011110111", "00011110111", "00000010100",
      "10010010100", "00011010110", "00000000000", "00011110111",
      "00000010000", "00001010100", "00011010110",
  };
  EXPECT_EQ(VarMatrix("<"), want);
  EXPECT_EQ(ConstantMatrix("<"), want);
}

TEST_F(CompareSemanticsTest, OrderByUsesTheSameComparison) {
  // Mixed numeric and textual comparisons are not a strict weak order, so
  // this is the order a stable sort makes of the executor's rows with them.
  EXPECT_EQ(Ordered("?x"), (std::vector<size_t>{5, 4, 0, 1, 2, 7, 10, 3, 9, 8, 6}));
  EXPECT_EQ(Ordered("DESC(?x)"), (std::vector<size_t>{6, 3, 0, 8, 4, 9, 5, 10, 1, 2, 7}));
}

class NumericEdgeTest : public CompareSemanticsTest {
 protected:
  void SetUp() override { Load(kEdgeValues); }
};

TEST_F(NumericEdgeTest, FilterAndOrderByResultsArePinned) {
  // Values: " 26", 0x1A, 26, inf, -inf, nan, 1e999, 1e-400, 0, abc. NaN
  // compares equal to every number; " 26" and 26 differ by text.
  const std::pair<const char*, std::vector<std::string>> kWant[] = {
      {"=",
       {"1110010000", "1110010000", "1110010000", "0001010000",
        "0000110000", "1111110010", "0000001000", "0000000100",
        "0000010010", "0000000001"}},
      {"!=",
       {"0001101111", "0001101111", "0001101111", "1110101111",
        "1111001111", "0000001101", "1111110111", "1111111011",
        "1111101101", "1111111110"}},
      {"<",
       {"0001001101", "0001001101", "0001000001", "0000000000",
        "1111001111", "0000000000", "0011010001", "0011011001",
        "1111001101", "0001010000"}},
      {"<=",
       {"1111011101", "1111011101", "1111010001", "0001010000",
        "1111111111", "1111110010", "0011011001", "0011011101",
        "1111011111", "0001010001"}},
      {">",
       {"0000100010", "0000100010", "0000101110", "1110101111",
        "0000000000", "0000001101", "1100100110", "1100100010",
        "0000100000", "1110101110"}},
      {">=",
       {"1110110010", "1110110010", "1110111110", "1111111111",
        "0000110000", "1111111111", "1100101110", "1100100110",
        "0000110010", "1110101111"}},
  };
  for (const auto& [op, want] : kWant) {
    SCOPED_TRACE(op);
    EXPECT_EQ(VarMatrix(op), want);
    EXPECT_EQ(ConstantMatrix(op), want);
  }
  EXPECT_EQ(Ordered("?x"), (std::vector<size_t>{4, 8, 0, 1, 7, 6, 2, 9, 3, 5}));
  EXPECT_EQ(Ordered("DESC(?x)"), (std::vector<size_t>{3, 0, 1, 2, 4, 5, 9, 6, 7, 8}));
}

TEST(NumericValueTest, ReadsWhatStrtodReadsWhole) {
  auto literal = [](std::string_view lexical) {
    return rdf::TermView{rdf::TermKind::kLiteral, lexical, {}, {}};
  };
  EXPECT_EQ(exec::NumericValue(literal(" 26")), 26.0);
  EXPECT_EQ(exec::NumericValue(literal("0x1A")), 26.0);
  EXPECT_EQ(exec::NumericValue(literal("-inf")),
            -std::numeric_limits<double>::infinity());
  ASSERT_TRUE(exec::NumericValue(literal("nan")).has_value());
  EXPECT_TRUE(std::isnan(*exec::NumericValue(literal("nan"))));
  for (const char* text : {"1e999", "1e-400", "26 ", "", "abc", "1e"}) {
    EXPECT_FALSE(exec::NumericValue(literal(text)).has_value()) << text;
  }
  EXPECT_FALSE(exec::NumericValue(
                   rdf::TermView{rdf::TermKind::kIri, "26", {}, {}})
                   .has_value());
  // A lexical form longer than the stack buffer is read as well.
  EXPECT_EQ(exec::NumericValue(literal(std::string(80, ' ') + "7")), 7.0);
}

// "x" and "x"^^xsd:string are one term with one key. A FILTER must treat
// them alike however the data first spelled the literal and however the
// query spells the constant, on either side of the comparison.
TEST(XsdStringFilterTest, BothSpellingsCompareEqual) {
  const std::string xsd_string = "^^<http://www.w3.org/2001/XMLSchema#string>";
  for (const std::string& data_suffix : {std::string(), xsd_string}) {
    rdf::Graph g;
    ASSERT_TRUE(rdf::ParseNTriples("<http://ex/a> <http://ex/p> \"x\"" + data_suffix +
                                       " .\n<http://ex/b> <http://ex/p> \"y\" .\n",
                                   &g)
                    .ok());
    g.Finalize();
    const rdf::TermId a = *g.dict().FindIri("http://ex/a");
    const rdf::TermId b = *g.dict().FindIri("http://ex/b");
    for (const std::string& constant_suffix : {std::string(), xsd_string}) {
      const std::string constant = "\"x\"" + constant_suffix;
      for (const auto& [op, want] :
           {std::pair<std::string, rdf::TermId>{"=", a}, {"!=", b}}) {
        for (const std::string& filter :
             {"?o " + op + " " + constant, constant + " " + op + " ?o"}) {
          SCOPED_TRACE("data \"x\"" + data_suffix + ", FILTER(" + filter + ")");
          auto q = sparql::ParseQuery("SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER(" +
                                      filter + ") }");
          ASSERT_TRUE(q.ok()) << q.status().ToString();
          auto r = exec::ExecuteSelect(g, *q);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r->rows.size(), 1u);
          EXPECT_EQ(r->rows[0][0], want);
        }
      }
    }
  }
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

TEST(EngineOptionsTest, EnvironmentDoesNotChangeDefaults) {
  // Environment settings a default engine must ignore: EngineOptions alone
  // decides the join mode, the plan cache and the query registry.
  const std::string kPrefix = "SHAPESTATS_";
  const std::string names[] = {kPrefix + "JOIN", kPrefix + "PLAN_CACHE",
                               kPrefix + "REGISTRY"};
  const char* kValues[] = {"merge", "1", "0"};
  std::optional<std::string> saved[3];
  for (int i = 0; i < 3; ++i) {
    if (const char* v = std::getenv(names[i].c_str())) saved[i] = v;
    ::setenv(names[i].c_str(), kValues[i], 1);
  }
  datagen::LubmOptions dopts;
  dopts.universities = 1;
  auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(dopts));
  Result<std::string> explain = eng.ok()
      ? eng->Explain(
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "SELECT * WHERE { ?x a ub:GraduateStudent . ?x ub:advisor ?p }")
      : Result<std::string>(eng.status());
  for (int i = 0; i < 3; ++i) {
    if (saved[i]) {
      ::setenv(names[i].c_str(), saved[i]->c_str(), 1);
    } else {
      ::unsetenv(names[i].c_str());
    }
  }
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  EXPECT_EQ(eng->plan_cache(), nullptr);
  EXPECT_NE(eng->query_registry(), nullptr);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("join mode: auto"), std::string::npos) << *explain;
}

// Threads calling Execute at once on one plan-cache engine share its cache
// and each keep their own canonicalization memo: every thread must get the
// serial answers.
TEST(PlanCacheConcurrencyTest, ConcurrentExecuteMatchesSerial) {
  datagen::LubmOptions dopts;
  dopts.universities = 1;
  engine::EngineOptions opts;
  opts.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
  opts.plan_cache_options.capacity = 4;  // hits, misses and evictions
  auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  const std::string prefix =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
  std::vector<std::string> queries;
  for (const char* cls : {"FullProfessor", "Lecturer", "AssistantProfessor"}) {
    for (const char* form :
         {"SELECT ?x ?n WHERE { ?x a ub:%s . ?x ub:name ?n }",
          "SELECT ?m ?x WHERE { ?x ub:name ?m . ?x a ub:%s } LIMIT 3",
          "SELECT (COUNT(*) AS ?c) WHERE { ?x a ub:%s . ?x ub:worksFor ?d }",
          "ASK { ?x a ub:%s . ?x ub:teacherOf ?c }",
          "SELECT ?x WHERE { ?x a ub:%s . ?x ub:name ?n FILTER(?n != \"z\") }"}) {
      char text[256];
      std::snprintf(text, sizeof(text), form, cls);
      queries.push_back(prefix + text);
    }
  }
  auto summary = [](const engine::QueryResult& r) {
    std::string s;
    for (const std::string& v : r.table.var_names) s += v + " ";
    for (const std::vector<rdf::TermId>& row : r.table.rows) {
      s += "|";
      for (rdf::TermId id : row) s += std::to_string(id) + " ";
    }
    if (r.ask) s += *r.ask ? "|ask:true" : "|ask:false";
    if (r.count) s += "|count:" + std::to_string(*r.count);
    return s;
  };
  std::vector<std::string> want;
  for (const std::string& q : queries) {
    auto r = eng->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want.push_back(summary(*r));
  }
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + t * 5) % queries.size();
          auto r = eng->Execute(queries[q]);
          got[t].push_back(r.ok() ? summary(*r) : r.status().ToString());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < got[t].size(); ++k) {
      EXPECT_EQ(got[t][k], want[(k % queries.size() + t * 5) % queries.size()])
          << "thread " << t;
    }
  }
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

// A result limit is the query's own SPARQL LIMIT: no executor the engine
// runs reads EngineOptions::exec.limit, so Open rejects a non-zero value
// instead of ignoring it.
TEST(EngineOpenTest, RejectsAnExecLimit) {
  rdf::Graph g;
  g.Finalize();
  engine::EngineOptions opts;
  opts.exec.limit = 3;
  auto eng = engine::QueryEngine::Open(std::move(g), opts);
  ASSERT_FALSE(eng.ok());
  EXPECT_EQ(eng.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(eng.status().message().find("SPARQL LIMIT"), std::string::npos)
      << eng.status().ToString();
}

TEST(EngineOpenTest, MissingFileSurfacesIOError) {
  auto r = engine::QueryEngine::FromNTriplesFile("/no/such/file.nt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace shapestats
