// Unit tests for src/sparql: parser, encoding, query-graph analysis.
#include <gtest/gtest.h>

#include "rdf/vocab.h"
#include "sparql/encoded_bgp.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"

namespace shapestats::sparql {
namespace {

ParsedQuery MustParse(const std::string& text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << text;
  return r.ok() ? std::move(r).value() : ParsedQuery{};
}

TEST(ParserTest, MinimalQuery) {
  auto q = MustParse("SELECT * WHERE { ?s ?p ?o }");
  EXPECT_TRUE(q.select_all);
  ASSERT_EQ(q.patterns.size(), 1u);
  EXPECT_TRUE(IsVar(q.patterns[0].s));
  EXPECT_TRUE(IsVar(q.patterns[0].p));
  EXPECT_TRUE(IsVar(q.patterns[0].o));
}

TEST(ParserTest, PrefixesAndAKeyword) {
  auto q = MustParse(
      "PREFIX ub: <http://ex.org/ub#>\n"
      "SELECT ?x WHERE { ?x a ub:Student . ?x ub:name ?n }");
  ASSERT_EQ(q.patterns.size(), 2u);
  EXPECT_EQ(AsTerm(q.patterns[0].p).lexical, std::string(rdf::vocab::kRdfType));
  EXPECT_EQ(AsTerm(q.patterns[0].o).lexical, "http://ex.org/ub#Student");
  EXPECT_EQ(AsTerm(q.patterns[1].p).lexical, "http://ex.org/ub#name");
  ASSERT_EQ(q.projection.size(), 1u);
  EXPECT_EQ(q.projection[0].name, "x");
}

TEST(ParserTest, FullIrisAndLiterals) {
  auto q = MustParse(
      "SELECT * WHERE { <http://a> <http://p> \"lit\" . "
      "<http://a> <http://q> 42 . <http://a> <http://r> \"x\"@en }");
  ASSERT_EQ(q.patterns.size(), 3u);
  EXPECT_EQ(AsTerm(q.patterns[0].o).lexical, "lit");
  EXPECT_EQ(AsTerm(q.patterns[1].o).datatype, std::string(rdf::vocab::kXsdInteger));
  EXPECT_EQ(AsTerm(q.patterns[2].o).lang, "en");
}

TEST(ParserTest, DistinctAndLimit) {
  auto q = MustParse("SELECT DISTINCT ?x WHERE { ?x ?p ?o } LIMIT 10");
  EXPECT_TRUE(q.distinct);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 10u);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  auto q = MustParse("select * where { ?s ?p ?o } limit 5");
  EXPECT_TRUE(q.select_all);
  EXPECT_EQ(*q.limit, 5u);
}

TEST(ParserTest, OptionalWhereKeyword) {
  auto q = MustParse("SELECT * { ?s ?p ?o }");
  EXPECT_EQ(q.patterns.size(), 1u);
}

TEST(ParserTest, TrailingDotAllowed) {
  auto q = MustParse("SELECT * WHERE { ?s ?p ?o . }");
  EXPECT_EQ(q.patterns.size(), 1u);
}

TEST(ParserTest, CommentsSkipped) {
  auto q = MustParse("# a comment\nSELECT * WHERE { # inner\n ?s ?p ?o }");
  EXPECT_EQ(q.patterns.size(), 1u);
}

TEST(ParserTest, Errors) {
  for (const char* bad : {
           "",                                              // empty
           "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }",     // not SELECT/ASK
           "SELECT * WHERE { }",                            // empty BGP
           "SELECT * WHERE { ?s ?p }",                      // truncated pattern
           "SELECT * WHERE { ?s ?p ?o",                     // missing brace
           "SELECT ?x WHERE { ?s ?p ?o }",                  // ?x not in BGP
           "SELECT * WHERE { ?s ex:p ?o }",                 // undeclared prefix
           "SELECT * WHERE { ?s ?p ?o } LIMIT x",           // bad LIMIT
           "SELECT * WHERE { ?s ?p ?o } trailing",          // junk
           "SELECT * WHERE { \"lit\" ?p ?o }",              // literal subject
           "SELECT * WHERE { ?s \"lit\" ?o }",              // literal predicate
           "SELECT * WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r } }",
       }) {
    EXPECT_FALSE(ParseQuery(bad).ok()) << bad;
  }
}

// LIMIT / OFFSET values past 64 bits are parse errors, not exceptions.
TEST(ParserTest, LimitAndOffsetRangeChecked) {
  auto max = MustParse("SELECT * WHERE { ?s ?p ?o } LIMIT 18446744073709551615");
  ASSERT_TRUE(max.limit.has_value());
  EXPECT_EQ(*max.limit, 18446744073709551615ull);
  for (const char* bad : {
           "SELECT * WHERE { ?s ?p ?o } LIMIT 18446744073709551616",
           "SELECT * WHERE { ?s ?p ?o } LIMIT 99999999999999999999999",
           "SELECT * WHERE { ?s ?p ?o } OFFSET 1844674407370955161600000",
       }) {
    auto q = ParseQuery(bad);
    ASSERT_FALSE(q.ok()) << bad;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(q.status().message().find("does not fit in 64 bits"),
              std::string::npos)
        << q.status().ToString();
  }
}

TEST(ParserTest, AllVariablesInFirstOccurrenceOrder) {
  auto q = MustParse("SELECT * WHERE { ?b ?a ?c . ?c ?a ?d }");
  auto vars = q.AllVariables();
  ASSERT_EQ(vars.size(), 4u);
  EXPECT_EQ(vars[0].name, "b");
  EXPECT_EQ(vars[1].name, "a");
  EXPECT_EQ(vars[2].name, "c");
  EXPECT_EQ(vars[3].name, "d");
}

TEST(ParserTest, PatternToString) {
  auto q = MustParse("SELECT * WHERE { ?x <http://p> \"v\" }");
  EXPECT_EQ(q.patterns[0].ToString(), "?x <http://p> \"v\"");
}

TEST(EncodeTest, VariablesGetDenseIds) {
  rdf::TermDictionary dict;
  auto q = MustParse("SELECT * WHERE { ?x ?p ?y . ?y ?p ?z }");
  EncodedBgp bgp = EncodeBgp(q, dict);
  EXPECT_EQ(bgp.NumVars(), 4u);  // x, p, y, z
  EXPECT_EQ(bgp.var_names[bgp.patterns[0].s.id], "x");
  // ?y is the object of tp0 and the subject of tp1 with the same id.
  EXPECT_EQ(bgp.patterns[0].o.id, bgp.patterns[1].s.id);
}

TEST(EncodeTest, KnownConstantsBecomeBound) {
  rdf::TermDictionary dict;
  rdf::TermId p = dict.InternIri("http://p");
  auto q = MustParse("SELECT * WHERE { ?x <http://p> ?y }");
  EncodedBgp bgp = EncodeBgp(q, dict);
  ASSERT_TRUE(bgp.patterns[0].p.is_bound());
  EXPECT_EQ(bgp.patterns[0].p.id, p);
}

TEST(EncodeTest, UnknownConstantsBecomeMissing) {
  rdf::TermDictionary dict;
  auto q = MustParse("SELECT * WHERE { ?x <http://nowhere> ?y }");
  EncodedBgp bgp = EncodeBgp(q, dict);
  EXPECT_TRUE(bgp.patterns[0].p.is_missing());
  EXPECT_TRUE(bgp.patterns[0].HasMissingConstant());
  EXPECT_EQ(dict.size(), 0u);  // encoding must not intern
}

TEST(EncodeTest, InputIndexPreserved) {
  rdf::TermDictionary dict;
  auto q = MustParse("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }");
  EncodedBgp bgp = EncodeBgp(q, dict);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(bgp.patterns[i].input_index, i);
}

class QueryGraphTest : public ::testing::Test {
 protected:
  EncodedBgp Encode(const std::string& text) {
    return EncodeBgp(MustParse(text), dict_);
  }
  rdf::TermDictionary dict_;
};

TEST_F(QueryGraphTest, SharedVarsPositions) {
  auto bgp = Encode("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?x }");
  auto shared = SharedVars(bgp.patterns[0], bgp.patterns[1]);
  ASSERT_EQ(shared.size(), 2u);
  // ?x: subject in a, object in b. ?y: object in a, subject in b.
  bool x_found = false, y_found = false;
  for (const SharedVar& sv : shared) {
    if (sv.pos_a == TermPos::kSubject && sv.pos_b == TermPos::kObject) x_found = true;
    if (sv.pos_a == TermPos::kObject && sv.pos_b == TermPos::kSubject) y_found = true;
  }
  EXPECT_TRUE(x_found);
  EXPECT_TRUE(y_found);
}

TEST_F(QueryGraphTest, JoinableDetectsCartesian) {
  auto bgp = Encode("SELECT * WHERE { ?x <http://p> ?y . ?a <http://q> ?b }");
  EXPECT_FALSE(Joinable(bgp.patterns[0], bgp.patterns[1]));
}

TEST_F(QueryGraphTest, ClassifiesStar) {
  auto bgp = Encode(
      "SELECT * WHERE { ?x <http://p> ?a . ?x <http://q> ?b . ?x <http://r> ?c }");
  EXPECT_EQ(ClassifyShape(bgp), QueryShape::kStar);
}

TEST_F(QueryGraphTest, ClassifiesSnowflake) {
  // Two subject stars linked by ?y.
  auto bgp = Encode(
      "SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?a . "
      "?y <http://r> ?b . ?y <http://s> ?c }");
  EXPECT_EQ(ClassifyShape(bgp), QueryShape::kSnowflake);
}

TEST_F(QueryGraphTest, ClassifiesComplexCycle) {
  auto bgp = Encode(
      "SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z . ?z <http://r> ?x }");
  EXPECT_EQ(ClassifyShape(bgp), QueryShape::kComplex);
}

TEST_F(QueryGraphTest, DisconnectedIsComplex) {
  auto bgp = Encode("SELECT * WHERE { ?x <http://p> ?y . ?a <http://q> ?b }");
  EXPECT_EQ(ClassifyShape(bgp), QueryShape::kComplex);
}

TEST_F(QueryGraphTest, ChainIsSnowflake) {
  // A pure chain is a degenerate tree of single-pattern stars.
  auto bgp = Encode(
      "SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z . ?z <http://r> ?w }");
  EXPECT_EQ(ClassifyShape(bgp), QueryShape::kSnowflake);
}

TEST_F(QueryGraphTest, VarOccurrences) {
  auto bgp = Encode("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?x }");
  auto occ = VarOccurrences(bgp);
  ASSERT_EQ(occ.size(), 2u);
  EXPECT_EQ(occ[0].size(), 2u);  // ?x in both patterns
  EXPECT_EQ(occ[1].size(), 2u);  // ?y in both patterns
}

TEST_F(QueryGraphTest, QueryShapeNames) {
  EXPECT_STREQ(QueryShapeName(QueryShape::kStar), "star");
  EXPECT_STREQ(QueryShapeName(QueryShape::kSnowflake), "snowflake");
  EXPECT_STREQ(QueryShapeName(QueryShape::kComplex), "complex");
}

}  // namespace
}  // namespace shapestats::sparql
