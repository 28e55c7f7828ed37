// Unit tests for src/rdf: terms, dictionary, graph indexes, N-Triples and
// Turtle parsing. Includes a parameterized sweep over all 8 triple-pattern
// binding combinations against a brute-force oracle.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <span>
#include <thread>
#include <tuple>

#include "datagen/lubm.h"
#include "datagen/yago.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace shapestats::rdf {
namespace {

TEST(TermTest, NTriplesRendering) {
  EXPECT_EQ(Term::Iri("http://x/a").ToNTriples(), "<http://x/a>");
  EXPECT_EQ(Term::Blank("b0").ToNTriples(), "_:b0");
  EXPECT_EQ(Term::Literal("hi").ToNTriples(), "\"hi\"");
  EXPECT_EQ(Term::Literal("hi", "", "en").ToNTriples(), "\"hi\"@en");
  EXPECT_EQ(Term::IntLiteral(5).ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(Term::Literal("q\"uote").ToNTriples(), "\"q\\\"uote\"");
}

TEST(TermTest, ParseIri) {
  auto r = ParseTerm("<http://x/a>");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_iri());
  EXPECT_EQ(r->lexical, "http://x/a");
}

TEST(TermTest, ParseBlank) {
  auto r = ParseTerm("_:node7");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_blank());
  EXPECT_EQ(r->lexical, "node7");
}

TEST(TermTest, ParseLiteralVariants) {
  auto plain = ParseTerm("\"hello\"");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->lexical, "hello");

  auto lang = ParseTerm("\"bonjour\"@fr");
  ASSERT_TRUE(lang.ok());
  EXPECT_EQ(lang->lang, "fr");

  auto typed = ParseTerm("\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->datatype, std::string(vocab::kXsdInteger));

  auto escaped = ParseTerm("\"a\\\"b\\nc\"");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped->lexical, "a\"b\nc");
}

TEST(TermTest, ParseErrors) {
  EXPECT_FALSE(ParseTerm("").ok());
  EXPECT_FALSE(ParseTerm("<unclosed").ok());
  EXPECT_FALSE(ParseTerm("\"unclosed").ok());
  EXPECT_FALSE(ParseTerm("bareword").ok());
  EXPECT_FALSE(ParseTerm("\"x\"^^garbage").ok());
}

TEST(TermTest, RoundTripThroughNTriples) {
  for (const Term& t :
       {Term::Iri("http://example.org/x"), Term::Blank("b1"),
        Term::Literal("plain"), Term::Literal("hi", "", "en"),
        Term::IntLiteral(-3), Term::Literal("w\"eird\\\n")}) {
    auto parsed = ParseTerm(t.ToNTriples());
    ASSERT_TRUE(parsed.ok()) << t.ToNTriples();
    EXPECT_EQ(*parsed, t) << t.ToNTriples();
  }
}

TEST(DictionaryTest, InternIsIdempotent) {
  TermDictionary dict;
  TermId a = dict.InternIri("http://x/a");
  TermId b = dict.InternIri("http://x/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.InternIri("http://x/a"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.term(a).lexical, "http://x/a");
}

TEST(DictionaryTest, NeverAssignsInvalidId) {
  TermDictionary dict;
  EXPECT_NE(dict.InternIri("http://x/a"), kInvalidTermId);
}

TEST(DictionaryTest, LiteralAndIriWithSameTextDiffer) {
  TermDictionary dict;
  TermId iri = dict.InternIri("x");
  TermId lit = dict.InternLiteral("x");
  EXPECT_NE(iri, lit);
}

TEST(DictionaryTest, FindDoesNotIntern) {
  TermDictionary dict;
  EXPECT_FALSE(dict.FindIri("http://x/missing").has_value());
  EXPECT_EQ(dict.size(), 0u);
  TermId a = dict.InternIri("http://x/a");
  ASSERT_TRUE(dict.FindIri("http://x/a").has_value());
  EXPECT_EQ(*dict.FindIri("http://x/a"), a);
}

TEST(DictionaryTest, PrettyUsesLocalName) {
  TermDictionary dict;
  TermId a = dict.InternIri("http://example.org/ns#GraduateStudent");
  EXPECT_EQ(dict.Pretty(a), "GraduateStudent");
  TermId b = dict.InternIri("http://example.org/path/Course");
  EXPECT_EQ(dict.Pretty(b), "Course");
  TermId l = dict.InternLiteral("value");
  EXPECT_EQ(dict.Pretty(l), "value");
}

// The i-th term of the growth test: IRIs, literals and blank nodes whose
// keys are often prefixes of one another ("<http://g/1>", "<http://g/10>").
Term GrowthTerm(size_t i) {
  switch (i % 3) {
    case 0:
      return Term::Iri("http://g/" + std::to_string(i));
    case 1:
      return Term::Literal(std::to_string(i), i % 2 ? "" : "http://g/dt");
    default:
      return Term::Blank(std::string("b").append(std::to_string(i)));
  }
}

TEST(DictionaryTest, GrowthKeepsEveryKeyFindable) {
  TermDictionary dict;
  const size_t n = 4 * TermDictionary::kInitialSlots + 37;
  std::vector<std::string> keys;
  // The index doubles whenever it gets more than half full.
  size_t slots = TermDictionary::kInitialSlots;
  size_t growths = 0;
  for (size_t i = 0; i < n; ++i) {
    const Term term = GrowthTerm(i);
    ASSERT_EQ(dict.Intern(term), i + 1) << "ids are dense in interning order";
    keys.push_back(term.ToNTriples());
    if (2 * dict.size() <= slots) continue;
    slots *= 2;
    ++growths;
    for (size_t k = 0; k < keys.size(); ++k) {
      ASSERT_EQ(dict.FindKey(keys[k]), OptId(k + 1)) << keys[k];
    }
  }
  EXPECT_GE(growths, 3u);
  ASSERT_EQ(dict.size(), n);
  for (size_t k = 0; k < n; ++k) {
    const Term term = GrowthTerm(k);
    EXPECT_EQ(dict.Intern(term), k + 1) << "re-interning returns the old id";
    EXPECT_EQ(dict.Find(term), OptId(k + 1));
    EXPECT_EQ(dict.ToNTriples(k + 1), keys[k]);
    EXPECT_EQ(dict.term(k + 1), term.view());
    // Extensions of a present key are absent, and so are its proper
    // prefixes (a blank label's prefix may be another label).
    EXPECT_FALSE(dict.FindKey(keys[k] + "#").has_value()) << keys[k];
    EXPECT_FALSE(dict.FindKey(keys[k] + " ").has_value()) << keys[k];
    if (term.is_blank()) continue;
    for (size_t len = 0; len < keys[k].size(); ++len) {
      EXPECT_FALSE(dict.FindKey(std::string_view(keys[k]).substr(0, len))
                       .has_value())
          << keys[k] << " cut to " << len;
    }
  }
  EXPECT_EQ(dict.size(), n);
  for (std::string_view absent :
       {"", "<", "<>", "<http://g/>", "\"\"", "_:", "_:b", "<http://g/1",
        "http://g/1", "<http://g/999999>"}) {
    EXPECT_FALSE(dict.FindKey(absent).has_value()) << absent;
  }
  EXPECT_FALSE(dict.FindIri("http://g/1").has_value());  // a literal, not IRI
  EXPECT_EQ(dict.FindIri("http://g/0"), OptId(1));
}

TEST(DictionaryTest, EqualLengthKeysWithEqualTagsStayApart) {
  // 2^18 keys of one length: by the birthday bound, several pairs share a
  // 32-bit hash tag, and only the key comparison in the arena tells them
  // apart.
  TermDictionary dict;
  constexpr size_t kKeys = size_t{1} << 18;
  auto iri = [](size_t i) {
    std::string digits = std::to_string(i);
    return "http://g/" + std::string(7 - digits.size(), '0') + digits;
  };
  for (size_t i = 0; i < kKeys; ++i) ASSERT_EQ(dict.InternIri(iri(i)), i + 1);
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(dict.FindIri(iri(i)), OptId(i + 1)) << iri(i);
  }
  EXPECT_EQ(dict.size(), kKeys);
}

class GraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [&](const std::string& s) { return g.dict().InternIri("http://x/" + s); };
    s1 = iri("s1");
    s2 = iri("s2");
    p1 = iri("p1");
    p2 = iri("p2");
    o1 = iri("o1");
    o2 = iri("o2");
    g.Add(s1, p1, o1);
    g.Add(s1, p1, o2);
    g.Add(s1, p2, o1);
    g.Add(s2, p1, o1);
    g.Add(s2, p2, o2);
    g.Add(s2, p2, o2);  // duplicate, removed at Finalize
    g.Finalize();
  }
  Graph g;
  TermId s1, s2, p1, p2, o1, o2;
};

TEST_F(GraphFixture, FinalizeDeduplicates) { EXPECT_EQ(g.NumTriples(), 5u); }

TEST_F(GraphFixture, FullScan) {
  EXPECT_EQ(g.CountMatches(std::nullopt, std::nullopt, std::nullopt), 5u);
}

TEST_F(GraphFixture, AllBindingCombinations) {
  EXPECT_EQ(g.CountMatches(s1, std::nullopt, std::nullopt), 3u);
  EXPECT_EQ(g.CountMatches(std::nullopt, p1, std::nullopt), 3u);
  EXPECT_EQ(g.CountMatches(std::nullopt, std::nullopt, o1), 3u);
  EXPECT_EQ(g.CountMatches(s1, p1, std::nullopt), 2u);
  EXPECT_EQ(g.CountMatches(s1, std::nullopt, o1), 2u);
  EXPECT_EQ(g.CountMatches(std::nullopt, p2, o2), 1u);
  EXPECT_EQ(g.CountMatches(s2, p2, o2), 1u);
  EXPECT_EQ(g.CountMatches(s2, p1, o2), 0u);
}

TEST_F(GraphFixture, ContainsExactTriples) {
  EXPECT_TRUE(g.Contains(s1, p1, o1));
  EXPECT_FALSE(g.Contains(s1, p2, o2));
}

TEST_F(GraphFixture, DistinctCounts) {
  EXPECT_EQ(g.CountDistinctSubjects(), 2u);
  EXPECT_EQ(g.CountDistinctObjects(), 2u);
  EXPECT_EQ(g.CountDistinctSubjects(p1), 2u);
  EXPECT_EQ(g.CountDistinctObjects(p1), 2u);
  EXPECT_EQ(g.CountDistinctSubjects(p2), 2u);
  EXPECT_EQ(g.CountDistinctObjects(p2), 2u);
}

TEST_F(GraphFixture, PredicateSpansAreSorted) {
  auto by_subject = g.PredicateBySubject(p1);
  ASSERT_EQ(by_subject.size(), 3u);
  for (size_t i = 1; i < by_subject.size(); ++i) {
    EXPECT_LE(by_subject[i - 1].s, by_subject[i].s);
  }
  auto by_object = g.PredicateByObject(p2);
  ASSERT_EQ(by_object.size(), 2u);
  for (size_t i = 1; i < by_object.size(); ++i) {
    EXPECT_LE(by_object[i - 1].o, by_object[i].o);
  }
}

TEST_F(GraphFixture, ForEachMatchVisitsAll) {
  int n = 0;
  g.ForEachMatch(std::nullopt, p1, std::nullopt, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 3);
}

TEST_F(GraphFixture, IndexBytesNonZero) { EXPECT_GT(g.IndexBytes(), 0u); }

// The triples of `truth` matching a pattern, in the order Match promises:
// sorted by the free components that MatchOrder lists.
std::vector<Triple> OracleMatch(const std::vector<Triple>& truth, OptId s,
                                OptId p, OptId o) {
  std::vector<Triple> out;
  for (const Triple& t : truth) {
    if ((!s || *s == t.s) && (!p || *p == t.p) && (!o || *o == t.o)) {
      out.push_back(t);
    }
  }
  const std::vector<int> order =
      Graph::MatchOrder(s.has_value(), p.has_value(), o.has_value());
  auto key = [&](const Triple& t) {
    std::vector<TermId> k;
    for (int pos : order) k.push_back(pos == 0 ? t.s : pos == 1 ? t.p : t.o);
    return k;
  };
  std::sort(out.begin(), out.end(),
            [&](const Triple& a, const Triple& b) { return key(a) < key(b); });
  return out;
}

// Match's span equals the oracle's triples in the same order; an empty span
// on a non-empty graph still points into the graph's storage.
void ExpectMatchesOracle(const Graph& g, const std::vector<Triple>& truth,
                         OptId s, OptId p, OptId o) {
  auto show = [](OptId id) { return id ? std::to_string(*id) : "?"; };
  std::span<const Triple> run = g.Match(s, p, o);
  EXPECT_EQ(std::vector<Triple>(run.begin(), run.end()),
            OracleMatch(truth, s, p, o))
      << "pattern (" << show(s) << ", " << show(p) << ", " << show(o) << ")";
  if (run.empty() && g.NumTriples() > 0) {
    EXPECT_NE(run.data(), nullptr);
  }
}

// Property test: every binding combination must agree with a brute-force
// filter over a random graph, in contents and order — for ids present in
// the graph and for ids absent from the probed position.
struct PatternCase {
  bool bind_s, bind_p, bind_o;
};

class MatchOracleTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(MatchOracleTest, AgreesWithBruteForce) {
  Rng rng(99);
  Graph g;
  std::vector<TermId> subjects, preds, objects;
  for (int i = 0; i < 20; ++i)
    subjects.push_back(g.dict().InternIri("http://t/s" + std::to_string(i)));
  for (int i = 0; i < 5; ++i)
    preds.push_back(g.dict().InternIri("http://t/p" + std::to_string(i)));
  for (int i = 0; i < 15; ++i)
    objects.push_back(g.dict().InternIri("http://t/o" + std::to_string(i)));
  std::vector<Triple> truth;
  for (int i = 0; i < 500; ++i) {
    Triple t{subjects[rng.Uniform(0, subjects.size() - 1)],
             preds[rng.Uniform(0, preds.size() - 1)],
             objects[rng.Uniform(0, objects.size() - 1)]};
    g.Add(t.s, t.p, t.o);
    truth.push_back(t);
  }
  std::set<std::tuple<TermId, TermId, TermId>> uniq;
  for (const Triple& t : truth) uniq.emplace(t.s, t.p, t.o);
  g.Finalize();
  ASSERT_EQ(g.NumTriples(), uniq.size());
  truth.clear();
  for (const auto& [ts, tp, to] : uniq) truth.push_back(Triple{ts, tp, to});

  const PatternCase& pc = GetParam();
  for (int trial = 0; trial < 30; ++trial) {
    OptId s = pc.bind_s ? OptId(subjects[rng.Uniform(0, subjects.size() - 1)])
                        : std::nullopt;
    OptId p = pc.bind_p ? OptId(preds[rng.Uniform(0, preds.size() - 1)])
                        : std::nullopt;
    OptId o = pc.bind_o ? OptId(objects[rng.Uniform(0, objects.size() - 1)])
                        : std::nullopt;
    ExpectMatchesOracle(g, truth, s, p, o);
    EXPECT_EQ(g.CountMatches(s, p, o), OracleMatch(truth, s, p, o).size());

    // The same probe with one bound position replaced by the invalid id, ids
    // past the dictionary, or an id drawn from each position (absent from
    // the other two).
    const TermId past = static_cast<TermId>(g.dict().size()) + 1;
    for (TermId absent : {kInvalidTermId, past, past + 100, ~TermId{0},
                          subjects[trial % subjects.size()],
                          preds[trial % preds.size()],
                          objects[trial % objects.size()]}) {
      if (s) ExpectMatchesOracle(g, truth, absent, p, o);
      if (p) ExpectMatchesOracle(g, truth, s, absent, o);
      if (o) ExpectMatchesOracle(g, truth, s, p, absent);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBindings, MatchOracleTest,
    ::testing::Values(PatternCase{false, false, false}, PatternCase{true, false, false},
                      PatternCase{false, true, false}, PatternCase{false, false, true},
                      PatternCase{true, true, false}, PatternCase{true, false, true},
                      PatternCase{false, true, true}, PatternCase{true, true, true}),
    [](const ::testing::TestParamInfo<PatternCase>& info) {
      std::string name;
      name += info.param.bind_s ? "S" : "s";
      name += info.param.bind_p ? "P" : "p";
      name += info.param.bind_o ? "O" : "o";
      return name;
    });

TEST(NTriplesTest, ParsesBasicLines) {
  Graph g;
  std::string nt =
      "# comment\n"
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "\n"
      "<http://x/s> <http://x/p> \"lit with spaces\" .\n"
      "_:b <http://x/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  ASSERT_TRUE(ParseNTriples(nt, &g).ok());
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 3u);
}

TEST(NTriplesTest, RejectsMalformedLines) {
  for (const char* bad :
       {"<http://x/s> <http://x/p> <http://x/o>",       // no dot
        "<http://x/s> <http://x/p> .",                  // missing object
        "\"lit\" <http://x/p> <http://x/o> .",          // literal subject
        "<http://x/s> \"lit\" <http://x/o> .",          // literal predicate
        "<http://x/s> _:b <http://x/o> ."}) {           // blank predicate
    Graph g;
    EXPECT_FALSE(ParseNTriples(bad, &g).ok()) << bad;
  }
}

TEST(NTriplesTest, RoundTrip) {
  Graph g;
  auto s = g.dict().InternIri("http://x/s");
  auto p = g.dict().InternIri("http://x/p");
  auto lit = g.dict().Intern(Term::Literal("v\"al\nue"));
  g.Add(s, p, lit);
  g.Finalize();
  std::string nt = WriteNTriples(g);
  Graph g2;
  ASSERT_TRUE(ParseNTriples(nt, &g2).ok());
  g2.Finalize();
  EXPECT_EQ(g2.NumTriples(), 1u);
  EXPECT_EQ(WriteNTriples(g2), nt);
}

TEST(NTriplesTest, RejectsParseIntoFinalizedGraph) {
  Graph g;
  g.Finalize();
  EXPECT_FALSE(ParseNTriples("<a> <b> <c> .", &g).ok());
}

// ---------------------------------------------------------------------------
// Loading: exact ids, the raw-key fast path, and its equivalence to
// parsing and interning every token.

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

// Dictionary keys in id order.
std::vector<std::string> Keys(const TermDictionary& dict) {
  std::vector<std::string> keys;
  for (TermId id = 1; id <= dict.size(); ++id) keys.push_back(dict.ToNTriples(id));
  return keys;
}

std::vector<Triple> Triples(const Graph& g) {
  return {g.triples().begin(), g.triples().end()};
}

// Ids are part of every digest and of the row order of queries without
// ORDER BY, so they must not depend on the compiler. N-Triples interns each
// line's object, predicate, subject in that order.
TEST(LoadIdsTest, NTriplesGoldenIds) {
  Graph g;
  ASSERT_TRUE(LoadNTriplesFile(WriteTempFile("golden.nt",
                                             "<http://x/a> <http://x/p> <http://x/b> .\n"
                                             "<http://x/b> <http://x/q> \"lit\" .\n"
                                             "_:n <http://x/p> <http://x/a> .\n"),
                               &g)
                  .ok());
  g.Finalize();
  EXPECT_EQ(Keys(g.dict()),
            (std::vector<std::string>{"<http://x/b>", "<http://x/p>", "<http://x/a>",
                                      "\"lit\"", "<http://x/q>", "_:n"}));
  EXPECT_EQ(Triples(g), (std::vector<Triple>{{1, 5, 4}, {3, 2, 1}, {6, 2, 3}}));
}

TEST(LoadIdsTest, AddOfTermsInternsObjectPredicateSubject) {
  Graph g;
  g.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"), Term::Literal("v"));
  EXPECT_EQ(Keys(g.dict()),
            (std::vector<std::string>{"\"v\"", "<http://x/p>", "<http://x/a>"}));
}

// Turtle interns in reading order: subject, predicate, object.
TEST(LoadIdsTest, TurtleGoldenIds) {
  Graph g;
  ASSERT_TRUE(LoadTurtleFile(WriteTempFile("golden.ttl",
                                           "@prefix ex: <http://x/> .\n"
                                           "ex:a ex:p ex:b ;\n"
                                           "     ex:q \"lit\" .\n"
                                           "_:n ex:p ex:a .\n"),
                             &g)
                  .ok());
  g.Finalize();
  EXPECT_EQ(Keys(g.dict()),
            (std::vector<std::string>{"<http://x/a>", "<http://x/p>", "<http://x/b>",
                                      "<http://x/q>", "\"lit\"", "_:n"}));
  EXPECT_EQ(Triples(g), (std::vector<Triple>{{1, 2, 3}, {1, 4, 5}, {6, 2, 1}}));
}

TEST(LoadIdsTest, MissingFileIsAnIoError) {
  Graph g;
  Status st = LoadNTriplesFile(::testing::TempDir() + "/no_such_file.nt", &g);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// A token spelled exactly like an existing key skips ParseTerm; the
// predicate and subject kind checks must still apply to it.
TEST(NTriplesFastPathTest, InternedNonIriPredicateIsRejected) {
  for (const char* line : {"<http://x/s> \"lit\" <http://x/o> .",
                           "<http://x/s> _:b <http://x/o> ."}) {
    Graph g;
    for (const Term& t : {Term::Iri("http://x/s"), Term::Iri("http://x/o"),
                          Term::Literal("lit"), Term::Blank("b")}) {
      g.dict().Intern(t);
    }
    Status st = ParseNTriples(line, &g);
    ASSERT_FALSE(st.ok()) << line;
    EXPECT_NE(st.message().find("predicate must be an IRI"), std::string::npos);
    EXPECT_EQ(g.dict().size(), 4u);
  }
}

TEST(NTriplesFastPathTest, InternedLiteralSubjectIsRejected) {
  Graph g;
  g.dict().Intern(Term::Literal("lit"));
  Status st = ParseNTriples("\"lit\" <http://x/p> <http://x/o> .", &g);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("subject must not be a literal"), std::string::npos);
  EXPECT_EQ(g.dict().size(), 1u);
}

// Every term of a line is resolved and checked before any is interned.
TEST(NTriplesFastPathTest, RejectedLineAddsNoTerm) {
  const std::string first = "<http://x/s> <http://x/p> <http://x/o> .\n";
  for (const char* bad : {"<http://x/new1> <http://x/new2> \"open .",
                          "<http://x/new1> <http://x/new2> <http://x/new3>",
                          "<http://x/new1> <http://x/new2> .",
                          "\"new\" <http://x/new2> <http://x/new3> .",
                          "<http://x/new1> \"new\" <http://x/new3> .",
                          "<http://x/new1> _:new <http://x/new3> .",
                          "<http://x/new1> <http://x/new2> bare .",
                          "<http://x/s> <http://x/p> <http://x/o .",
                          "<http://x/new1 <http://x/p> <http://x/o> ."}) {
    Graph g;
    Status st = ParseNTriples(first + bad, &g);
    ASSERT_FALSE(st.ok()) << bad;
    EXPECT_TRUE(StartsWith(st.message(), "line 2: ")) << st.message();
    EXPECT_EQ(g.dict().size(), 3u) << bad;
  }
}

// Raw spellings that are not the canonical key miss the lookup and are
// canonicalized by ParseTerm + Intern.
TEST(NTriplesFastPathTest, NonCanonicalLiteralsMapToCanonicalIds) {
  Graph g;
  ASSERT_TRUE(ParseNTriples(
                  "<http://x/s> <http://x/p> \"x\" .\n"
                  "<http://x/s> <http://x/q> "
                  "\"x\"^^<http://www.w3.org/2001/XMLSchema#string> .\n"
                  "<http://x/s> <http://x/p> \"a\\tb\" .\n"
                  "<http://x/s> <http://x/q> \"a\tb\" .\n"
                  "<http://x/s> <http://x/p> \"say \\\"hi\\\"\" .\n",
                  &g)
                  .ok());
  const TermId x = *g.dict().Find(Term::Literal("x"));
  const TermId tab = *g.dict().Find(Term::Literal("a\tb"));
  EXPECT_EQ(g.dict().size(), 6u);  // s, p, q, "x", "a\tb", "say \"hi\""
  EXPECT_TRUE(g.dict().Find(Term::Literal("say \"hi\"")).has_value());
  const TermId s = *g.dict().FindIri("http://x/s");
  const TermId q = *g.dict().FindIri("http://x/q");
  g.Finalize();
  EXPECT_TRUE(g.Contains(s, q, x));
  EXPECT_TRUE(g.Contains(s, q, tab));
  EXPECT_EQ(g.dict().ToNTriples(tab), "\"a\\tb\"");
}

TEST(NTriplesFastPathTest, TabsCrlfCommentsAndNoFinalNewline) {
  Graph g;
  ASSERT_TRUE(ParseNTriples("# header\r\n"
                            "<http://x/s>\t<http://x/p>\t<http://x/o>\t.\r\n"
                            "   # indented comment\n"
                            "\r\n"
                            "\t<http://x/s> <http://x/p>  \"two\twords\"@en .\r\n"
                            "<http://x/o> <http://x/p> <http://x/s>.",
                            &g)
                  .ok());
  EXPECT_EQ(g.dict().size(), 4u);
  EXPECT_TRUE(g.dict().Find(Term::Literal("two\twords", "", "en")).has_value());
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 3u);
}

// Reference loader: Intern(ParseTerm(token)) for every token, object first.
// Handles only WriteNTriples output, where subject and predicate hold no
// space and every line ends in " .".
Graph ReferenceLoad(std::string_view text) {
  Graph g;
  for (size_t pos = 0; pos < text.size();) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t a = line.find(' ');
    const size_t b = line.find(' ', a + 1);
    const TermId o = g.dict().Intern(*ParseTerm(line.substr(b + 1, line.size() - b - 3)));
    const TermId p = g.dict().Intern(*ParseTerm(line.substr(a + 1, b - a - 1)));
    const TermId s = g.dict().Intern(*ParseTerm(line.substr(0, a)));
    g.Add(s, p, o);
  }
  g.Finalize();
  return g;
}

// term(id) reads, field by field, as ParseTerm of the id's key, for every
// id (0, never assigned, reads as the IRI <>).
void ExpectViewsParseTheirKeys(const TermDictionary& dict) {
  for (TermId id = 0; id <= dict.size(); ++id) {
    const std::string key = dict.ToNTriples(id);
    Result<Term> parsed = ParseTerm(key);
    ASSERT_TRUE(parsed.ok()) << key;
    const TermView view = dict.term(id);
    ASSERT_EQ(view.kind, parsed->kind) << key;
    ASSERT_EQ(view.lexical, parsed->lexical) << key;
    ASSERT_EQ(view.datatype, parsed->datatype) << key;
    ASSERT_EQ(view.lang, parsed->lang) << key;
  }
}

// Writes `g` as N-Triples and loads the text back on the shared pool and on
// pools of 1, 2 and 4 threads: each load must intern the keys and add the
// triples the reference loader does, and read every term as its key.
void ExpectLoadRoundTrip(const Graph& g) {
  const TermDictionary& dict = g.dict();
  ASSERT_GT(dict.size(), 0u);
  for (TermId id = 1; id <= dict.size(); ++id) {
    const std::string key = dict.ToNTriples(id);
    ASSERT_EQ(dict.FindKey(key), id) << key;
  }
  ExpectViewsParseTheirKeys(dict);
  const std::string text = WriteNTriples(g);
  Graph reference = ReferenceLoad(text);
  util::ThreadPool one(1), two(2), four(4);
  for (util::ThreadPool* pool : {&util::ThreadPool::Shared(), &one, &two, &four}) {
    SCOPED_TRACE("pool of " + std::to_string(pool->num_threads()));
    Graph loaded;
    ASSERT_TRUE(ParseNTriples(text, &loaded, pool).ok());
    loaded.Finalize();
    EXPECT_EQ(Keys(loaded.dict()), Keys(reference.dict()));
    EXPECT_EQ(Triples(loaded), Triples(reference));
    EXPECT_EQ(loaded.NumTriples(), g.NumTriples());
    ExpectViewsParseTheirKeys(loaded.dict());
  }
}

TEST(LoadRoundTripTest, Lubm1) {
  datagen::LubmOptions opts;
  opts.universities = 1;
  ExpectLoadRoundTrip(datagen::GenerateLubm(opts));
}

TEST(LoadRoundTripTest, SmallYago) {
  datagen::YagoOptions opts;
  opts.num_entities = 5000;
  ExpectLoadRoundTrip(datagen::GenerateYago(opts));
}

TEST(LoadRoundTripTest, EveryTermKindOnEveryPool) {
  // Several chunks of IRIs, blank nodes, a language tag, a datatype, a
  // literal with every escape, and literals spelled both plainly and as
  // ^^xsd:string (the plain spelling first for even i and second for odd
  // i).
  const std::string xsd_string = "^^<http://www.w3.org/2001/XMLSchema#string>";
  std::string doc;
  for (int i = 0; doc.size() < 4 * kNTriplesMinChunkBytes; ++i) {
    const std::string s = "<http://x/s" + std::to_string(i) + "> ";
    const std::string blank = "_:b" + std::to_string(i % 7);
    const std::string x = "\"x" + std::to_string(i) + "\"";
    doc += s + "<http://x/p> " + blank + " .\n";
    doc += blank + " <http://x/lang> \"v" + std::to_string(i % 5) + "\"@en-GB .\n";
    doc += s + "<http://x/int> \"" + std::to_string(i % 11) +
           "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
    doc += s + "<http://x/esc> \"say \\\"hi\\\" \\\\ \\n\\t" + std::to_string(i % 3) +
           "\" .\n";
    doc += s + "<http://x/str> " + x + (i % 2 ? xsd_string : "") + " .\n";
    doc += s + "<http://x/str> " + x + (i % 2 ? "" : xsd_string) + " .\n";
  }
  util::ThreadPool one(1), two(2), four(4);
  std::vector<std::string> keys;
  for (util::ThreadPool* pool : {&one, &two, &four}) {
    SCOPED_TRACE("pool of " + std::to_string(pool->num_threads()));
    Graph g;
    ASSERT_TRUE(ParseNTriples(doc, &g, pool).ok());
    g.Finalize();
    ExpectViewsParseTheirKeys(g.dict());
    const TermDictionary& dict = g.dict();
    const std::optional<TermId> escaped = dict.Find(Term::Literal("say \"hi\" \\ \n\t2"));
    ASSERT_TRUE(escaped.has_value());
    EXPECT_EQ(dict.term(*escaped).lexical, "say \"hi\" \\ \n\t2");
    const std::optional<TermId> x = dict.Find(Term::Literal("x1"));
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(dict.ToNTriples(*x), "\"x1\"");
    EXPECT_EQ(dict.term(*x), Term::Literal("x1").view());
    EXPECT_EQ(dict.term(*x), Term::Literal("x1", std::string(vocab::kXsdString)).view());
    if (keys.empty()) keys = Keys(dict);
    EXPECT_EQ(Keys(dict), keys);
    if (pool == &four) ExpectLoadRoundTrip(g);
  }
}

// ---------------------------------------------------------------------------
// Differential check: the loader against a line-by-line reference of the
// same language, on randomly mutated real lines.

// True when the text after a literal's closing quote is a suffix N-Triples
// allows: none; '@' and a language tag, whose '-'-separated subtags are
// non-empty, the first letters only and the rest letters and digits; or a
// datatype IRI in "^^<...>" with no byte <= 0x20 and none of <>"{}|^`\ and
// so no escape.
bool ReferenceSuffixOk(std::string_view suffix) {
  if (suffix.empty()) return true;
  const std::string letters =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  if (suffix.front() == '@') {
    const std::vector<std::string> subtags = Split(suffix.substr(1), '-');
    for (size_t i = 0; i < subtags.size(); ++i) {
      const std::string allowed = i == 0 ? letters : letters + "0123456789";
      if (subtags[i].empty() ||
          subtags[i].find_first_not_of(allowed) != std::string::npos) {
        return false;
      }
    }
    return true;
  }
  if (!StartsWith(suffix, "^^<") || suffix.back() != '>') return false;
  for (const char c : suffix.substr(3, suffix.size() - 4)) {
    if (static_cast<unsigned char>(c) <= 0x20 ||
        std::string_view("<>\"{}|^`\\").find(c) != std::string_view::npos) {
      return false;
    }
  }
  return true;
}

// The N-Triples language spelled out with no shortcut: per line Trim, skip
// blank and '#' lines, require the terminating '.', split three tokens (a
// quoted literal runs to its closing unescaped quote, each of the first two
// tokens then up to the next whitespace, the object to the end of the line),
// then check each literal's suffix and ParseTerm each token, check the
// kinds, and only then Intern object, predicate, subject.
Status ReferenceParse(std::string_view text, Graph* g) {
  size_t line_no = 0;
  for (size_t pos = 0; pos < text.size();) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    const std::string where = "line " + std::to_string(++line_no) + ": ";
    if (line.empty() || line.front() == '#') continue;
    if (line.back() != '.') {
      return Status::ParseError(where + "missing terminating '.': " + std::string(line));
    }
    std::string_view rest = Trim(line.substr(0, line.size() - 1));
    std::string_view tok[3];
    for (int k = 0; k < 3; ++k) {
      while (!rest.empty() && IsAsciiSpace(rest.front())) rest.remove_prefix(1);
      if (rest.empty()) return Status::ParseError(where + "truncated triple");
      size_t end = rest.size();
      if (k < 2) {
        end = 0;
        if (rest.front() == '"') {
          for (end = 1; end < rest.size() && rest[end] != '"';) end += rest[end] == '\\' ? 2 : 1;
          end = std::min(end + 1, rest.size());
        }
        while (end < rest.size() && !IsAsciiSpace(rest[end])) ++end;
      }
      tok[k] = rest.substr(0, end);
      rest.remove_prefix(end);
    }
    std::vector<Term> terms;
    for (std::string_view t : tok) {
      if (t.front() == '"') {
        size_t close = 1;
        while (close < t.size() && t[close] != '"') close += t[close] == '\\' ? 2 : 1;
        if (close < t.size() && !ReferenceSuffixOk(t.substr(close + 1))) {
          return Status::ParseError(where + "bad literal suffix: " + std::string(t));
        }
      }
      Result<Term> term = ParseTerm(t);
      if (!term.ok()) return Status::ParseError(where + term.status().message());
      terms.push_back(*term);
    }
    if (!terms[1].is_iri()) return Status::ParseError(where + "predicate must be an IRI");
    if (terms[0].is_literal()) {
      return Status::ParseError(where + "subject must not be a literal");
    }
    const TermId o = g->dict().Intern(terms[2]);
    const TermId p = g->dict().Intern(terms[1]);
    const TermId s = g->dict().Intern(terms[0]);
    g->Add(s, p, o);
  }
  return Status::OK();
}

// One WriteNTriples line ("S P O .") with at most one random mutation: a
// changed separator, line end or token, an escape or suffix in a literal,
// a control byte, a cut, a comment. Literal values come from a small pool
// so that different spellings of one term meet in a document.
std::string Mutate(const std::string& line, Rng& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng.Uniform(0, n - 1)); };
  const size_t a = line.find(' ');
  const size_t b = line.find(' ', a + 1);
  std::string s = line.substr(0, a);
  std::string p = line.substr(a + 1, b - a - 1);
  std::string o = line.substr(b + 1, line.size() - b - 3);
  std::string sep1 = " ", sep2 = " ", tail = " .";
  const std::string value = "v" + std::to_string(pick(8));
  auto joined = [&] { return s + sep1 + p + sep2 + o + tail; };
  switch (pick(24)) {
    case 0: (pick(2) ? sep1 : sep2) = pick(2) ? "\t" : "\v"; break;
    case 1: tail += "\r"; break;
    case 2: (pick(2) ? sep1 : sep2) = "  "; break;
    case 3: {
      std::string r = joined();
      r.insert(pick(r.size() + 1), 1, static_cast<char>(pick(2) ? 1 + pick(31) : 0x7f));
      return r;
    }
    case 4: {
      const char* kEscapes[] = {"\\t", "\\\"", "\\\\", "\\n", "\\r", "\\x", "\t", "\r", "\\"};
      o = "\"" + value + kEscapes[pick(9)] + "\"";
      break;
    }
    case 5: {
      const char* kLangs[] = {"@en", "@",   "@en-GB", "@en fr", "@en\"GB",
                              "@en-", "@-GB", "@en-GB-1x", "@e1"};
      o = "\"" + value + "\"" + kLangs[pick(9)];
      break;
    }
    case 6: o = "\"" + value + "\"^^<http://www.w3.org/2001/XMLSchema#string>"; break;
    case 7: {
      const char* kDatatypes[] = {"<>", "<http://x/d\"t>", "<http://x/a b>",
                                  "<http://x/{t}>", "<http://x/a>b>",
                                  "<http://x/d`t>", "<http://x/d\\u0041>"};
      o = "\"" + value + "\"^^" + kDatatypes[pick(7)];
      break;
    }
    case 8: o = "\"" + value + "\"^^<http://www.w3.org/2001/XMLSchema#integer>"; break;
    case 9: tail = pick(2) ? " " : ""; break;
    case 10: {
      std::string r = joined();
      r.resize(pick(r.size()));
      return r;
    }
    case 11: return pick(2) ? "#" + line : "  # " + line;
    case 12: return (pick(2) ? " " : "\t") + line;
    case 13: tail += pick(2) ? " " : "\t "; break;
    case 14: {
      const char* kTails[] = {".", "  .", "\t.", " . ."};
      tail = kTails[pick(4)];
      break;
    }
    case 15: std::swap(s, o); break;
    case 16: p = pick(2) ? "_:b" + std::to_string(pick(3)) : "\"" + value + "\""; break;
    case 17: return pick(2) ? "" : " \t ";
    case 18: o = "\"" + value + (pick(2) ? " two  words\"" : "\""); break;
    case 19: o = o.back() == '>' ? o.substr(0, o.size() - 1) : "bare"; break;
    case 20: s = pick(2) ? "\"" + value + " x\"" : "_:n" + std::to_string(pick(4)); break;
    case 21: {  // spaces at every offset from the line's end
      o = "\"";
      for (size_t n = pick(16); n > 0; --n) o += "ab "[pick(3)];
      o += "\"";
      break;
    }
    default: break;  // unchanged
  }
  return joined();
}

// Loads `doc` with ParseNTriples on `pool` and with ReferenceParse and
// requires the same status text, the same terms and keys in id order and the
// same triples in the order they were added. Returns the status and adds
// the number of triples loaded to `*loaded`.
Status ExpectLoadsLikeReference(const std::string& doc, util::ThreadPool* pool,
                                size_t* loaded) {
  Graph actual, reference;
  const Status got = ParseNTriples(doc, &actual, pool);
  const Status want = ReferenceParse(doc, &reference);
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_EQ(Keys(actual.dict()), Keys(reference.dict()));
  if (actual.dict().size() == reference.dict().size()) {
    for (TermId id = 1; id <= actual.dict().size(); ++id) {
      EXPECT_EQ(actual.dict().term(id), reference.dict().term(id)) << id;
    }
  }
  ExpectViewsParseTheirKeys(actual.dict());
  EXPECT_EQ(Triples(actual), Triples(reference));
  *loaded += actual.triples().size();
  return got;
}

// Loads `docs` mutated documents cut from `g`'s N-Triples with both loaders
// and requires the same status text, the same terms and keys in id order
// and the same triples in the order they were added.
void ExpectLoaderMatchesReference(const Graph& g, uint64_t seed, int docs) {
  const std::vector<std::string> lines = Split(Trim(WriteNTriples(g)), '\n');
  Rng rng(seed);
  int failed = 0;
  size_t loaded = 0;
  for (int d = 0; d < docs; ++d) {
    std::string doc;
    const size_t first = static_cast<size_t>(rng.Uniform(0, lines.size() - 1));
    for (size_t i = first; i < std::min(first + 30, lines.size()); ++i) {
      doc += rng.Chance(0.15) ? Mutate(lines[i], rng) : lines[i];
      doc += '\n';
    }
    if (rng.Chance(0.3)) doc.pop_back();
    SCOPED_TRACE(doc);
    const Status got = ExpectLoadsLikeReference(doc, nullptr, &loaded);
    ASSERT_FALSE(::testing::Test::HasFailure());
    failed += got.ok() ? 0 : 1;
  }
  // Both outcomes, and thousands of lines, must have been exercised.
  EXPECT_GT(failed, docs / 10);
  EXPECT_LT(failed, docs * 9 / 10);
  EXPECT_GT(loaded, static_cast<size_t>(docs) * 10);
}

TEST(NTriplesDifferentialTest, MutatedLubmLines) {
  datagen::LubmOptions opts;
  opts.universities = 1;
  ExpectLoaderMatchesReference(datagen::GenerateLubm(opts), /*seed=*/22, /*docs=*/800);
}

TEST(NTriplesDifferentialTest, MutatedYagoLines) {
  datagen::YagoOptions opts;
  opts.num_entities = 2000;
  ExpectLoaderMatchesReference(datagen::GenerateYago(opts), /*seed=*/23, /*docs=*/800);
}

TEST(NTriplesDifferentialTest, MalformedLiteralSuffixes) {
  // A tag or datatype holding a quote, a space or another byte N-Triples
  // forbids fails the line, on either loader, with the same message.
  const std::string good = "<http://x/s> <http://x/p> \"ok\"@en-GB .\n";
  for (const char* object :
       {"\"q\"@en\"GB", "\"v\"@en fr", "\"v\"@", "\"v\"@en-", "\"v\"@1en",
        "\"q\"^^<http://x/d\"t>", "\"q\"^^<http://x/a b>", "\"q\"^^<http://x/a>b>",
        "\"q\"^^<http://x/{t}>", "\"q\"^^<http://x/d\\u0041>"}) {
    SCOPED_TRACE(object);
    const std::string doc = good + "<http://x/s> <http://x/p> " + object + " .\n";
    size_t loaded = 0;
    const Status got = ExpectLoadsLikeReference(doc, nullptr, &loaded);
    EXPECT_EQ(got.message(), std::string("line 2: bad literal suffix: ") + object);
    EXPECT_EQ(loaded, 1u);
  }
  // The suffixes N-Triples allows still load.
  for (const char* object :
       {"\"v\"@en", "\"v\"@en-GB-1x", "\"v\"@e-1", "\"v\"^^<>",
        "\"v\"^^<http://x/caf\xc3\xa9>"}) {
    SCOPED_TRACE(object);
    const std::string doc = good + "<http://x/s> <http://x/p> " + object + " .\n";
    size_t loaded = 0;
    EXPECT_TRUE(ExpectLoadsLikeReference(doc, nullptr, &loaded).ok());
    EXPECT_EQ(loaded, 2u);
  }
}

// ---------------------------------------------------------------------------
// Multi-chunk loads: documents long enough for NTriplesChunks to cut them
// into several chunks, loaded on pools of 1, 2 and 4 threads, against the
// same reference. Besides random mutations, each document plants a term
// spelled canonically in one chunk and non-canonically in another, and
// about half of them a bad line on the first or last line of a chunk.

TEST(NTriplesChunksTest, ChunksAreWholeLinesCoveringTheText) {
  std::string text;
  for (int i = 0; text.size() < 5 * kNTriplesMinChunkBytes; ++i) {
    text += "<http://x/s" + std::to_string(i) + "> <http://x/p> \"v\" .\n";
  }
  for (const std::string& doc : {text, text.substr(0, text.size() - 1)}) {
    EXPECT_EQ(NTriplesChunks(doc, 1).size(), 1u);
    EXPECT_EQ(NTriplesChunks(doc.substr(0, kNTriplesMinChunkBytes), 4).size(), 1u);
    for (unsigned threads : {2u, 4u, 64u}) {
      const std::vector<std::string_view> chunks = NTriplesChunks(doc, threads);
      EXPECT_EQ(chunks.size(), 5u) << threads;
      std::string joined;
      for (size_t c = 0; c < chunks.size(); ++c) {
        ASSERT_FALSE(chunks[c].empty());
        if (c + 1 < chunks.size()) {
          EXPECT_EQ(chunks[c].back(), '\n');
        }
        joined += chunks[c];
      }
      EXPECT_EQ(joined, doc);
    }
  }
  EXPECT_EQ(NTriplesChunks("", 4), std::vector<std::string_view>{""});
}

// The 1-based line numbers at which the chunks of `doc` start.
std::vector<size_t> ChunkFirstLines(std::string_view doc, unsigned threads) {
  std::vector<size_t> first;
  size_t line = 1;
  for (std::string_view chunk : NTriplesChunks(doc, threads)) {
    first.push_back(line);
    line += static_cast<size_t>(std::count(chunk.begin(), chunk.end(), '\n'));
  }
  return first;
}

// The line number a "line N: ..." status names, or 0 for OK.
size_t ErrorLine(const Status& st) {
  if (st.ok()) return 0;
  return std::stoul(st.message().substr(5));
}

void ExpectChunkedLoaderMatchesReference(const Graph& g, uint64_t seed, int docs) {
  const std::vector<std::string> lines = Split(Trim(WriteNTriples(g)), '\n');
  util::ThreadPool one(1), two(2), four(4);
  util::ThreadPool* pools[] = {&one, &two, &four};
  Rng rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng.Uniform(0, n - 1)); };
  int later_chunk_errors = 0, first_line_errors = 0, last_line_errors = 0;
  int repeated_subjects = 0, no_final_newline = 0, canonical_first = 0,
      canonical_second = 0, multi_chunk = 0, escaped_across_chunks = 0;
  for (int d = 0; d < docs; ++d) {
    // A run of consecutive lines, 2 to 9 minimum chunks long (with a margin
    // for mutations that shorten lines), with about two random mutations.
    const size_t target = (2 + pick(8)) * kNTriplesMinChunkBytes + 4096;
    std::vector<std::string> doc_lines;
    size_t bytes = 0;
    for (size_t i = pick(lines.size()); bytes < target; ++i) {
      doc_lines.push_back(lines[i % lines.size()]);
      bytes += doc_lines.back().size() + 1;
    }
    for (std::string& line : doc_lines) {
      if (rng.Chance(2.0 / doc_lines.size())) line = Mutate(line, rng);
    }
    auto join = [&] {
      std::string doc;
      for (const std::string& line : doc_lines) doc += line + '\n';
      return doc;
    };
    // One literal in two chunks a < b: canonically in one, and as an
    // explicit ^^xsd:string or with a raw tab (canonically \t) in the other.
    const std::vector<size_t> clean_first = ChunkFirstLines(join(), 2);
    const size_t a = pick(clean_first.size() - 1);
    const size_t b = a + 1 + pick(clean_first.size() - a - 1);
    auto line_in = [&](size_t chunk) {
      const size_t begin = clean_first[chunk] - 1;
      const size_t end = chunk + 1 < clean_first.size() ? clean_first[chunk + 1] - 1
                                                       : doc_lines.size();
      return begin + pick(end - begin);
    };
    const std::string value = "w" + std::to_string(d);
    std::string spelled[2] = {"\"" + value + "\"",
                              "\"" + value + "\"^^<http://www.w3.org/2001/XMLSchema#string>"};
    if (rng.Chance(0.5)) {
      spelled[0] = "\"" + value + "\\t\"";
      spelled[1] = "\"" + value + "\t\"";
    }
    const bool canonical_in_a = rng.Chance(0.5);
    const size_t planted[2] = {line_in(a), line_in(b)};
    for (int k = 0; k < 2; ++k) {
      std::string& line = doc_lines[planted[k]];
      if (line.empty() || line[0] == '#') line = lines[0];
      const size_t sp = line.find(' ', line.find(' ') + 1);
      line = line.substr(0, sp + 1) + spelled[(k == 0) == canonical_in_a ? 0 : 1] + " .";
    }
    // In every chunk, one line whose object is the same literal with every
    // escape, under a blank subject, and one with a language tag or a
    // datatype.
    const std::string escaped = "\"e" + std::to_string(d) + " \\\" \\\\ \\n\\t\"";
    std::set<size_t> used = {planted[0], planted[1]};
    auto unused_line_in = [&](size_t chunk) {
      size_t line;
      do line = line_in(chunk);
      while (!used.insert(line).second);
      return line;
    };
    std::vector<size_t> escaped_lines;
    for (size_t c = 0; c < clean_first.size(); ++c) {
      escaped_lines.push_back(unused_line_in(c));
      doc_lines[escaped_lines.back()] =
          "_:e" + std::to_string(c % 2) + " <http://x/esc> " + escaped + " .";
      doc_lines[unused_line_in(c)] =
          "<http://x/s" + std::to_string(c) + "> <http://x/p> " +
          (c % 2 ? "\"v\"@en-GB" : "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>") + " .";
    }
    std::string doc = join();
    if (rng.Chance(0.3)) {
      doc.pop_back();
      ++no_final_newline;
    }
    // A bad line on the first or last line of a chunk, written in place so
    // that no chunk boundary moves: the terminating '.' becomes ','.
    std::vector<size_t> first = ChunkFirstLines(doc, 2);
    ASSERT_GT(first.size(), 1u);
    if (rng.Chance(0.5)) {
      const size_t k = pick(first.size());
      const bool last = k > 0 && rng.Chance(0.5);
      const size_t line_no = last ? first[k] - 1 : (k > 0 ? first[k] : first[1] - 1);
      size_t at = 0;
      for (size_t l = 1; l < line_no; ++l) at = doc.find('\n', at) + 1;
      const size_t dot = doc.find_last_of('.', doc.find('\n', at) - 1);
      if (dot != std::string::npos && dot >= at) doc[dot] = ',';
    }
    SCOPED_TRACE("document " + std::to_string(d));
    for (util::ThreadPool* pool : pools) {
      size_t loaded = 0;
      const Status got = ExpectLoadsLikeReference(doc, pool, &loaded);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "pool of " << pool->num_threads();
      // What the document covered, as this pool cut it.
      first = ChunkFirstLines(doc, pool->num_threads());
      if (first.size() == 1) continue;
      ++multi_chunk;
      const size_t bad = ErrorLine(got);
      const size_t loaded_lines = bad == 0 ? doc_lines.size() : bad - 1;
      for (size_t k = 1; k < first.size() && first[k] <= loaded_lines; ++k) {
        const std::string& prev = doc_lines[first[k] - 2];
        const std::string& next = doc_lines[first[k] - 1];
        repeated_subjects += !prev.empty() && prev.substr(0, prev.find(' ') + 1) ==
                                                  next.substr(0, next.find(' ') + 1);
      }
      if (bad != 0) {
        const auto it = std::upper_bound(first.begin(), first.end(), bad);
        later_chunk_errors += it - first.begin() > 1;
        first_line_errors += it - first.begin() > 1 && *(it - 1) == bad;
        last_line_errors += it != first.end() && *it == bad + 1;
      }
      if (std::max(planted[0], planted[1]) < loaded_lines) {
        ++(canonical_in_a ? canonical_first : canonical_second);
      }
      std::set<size_t> escaped_chunks;
      for (size_t line : escaped_lines) {
        if (line >= loaded_lines) continue;
        escaped_chunks.insert(std::upper_bound(first.begin(), first.end(), line + 1) -
                              first.begin());
      }
      escaped_across_chunks += escaped_chunks.size() > 1;
    }
  }
  // Every document spans several chunks on the 2- and 4-thread pools.
  EXPECT_EQ(multi_chunk, 2 * docs);
  EXPECT_GT(later_chunk_errors, 0);
  EXPECT_GT(first_line_errors, 0);
  EXPECT_GT(last_line_errors, 0);
  EXPECT_GT(repeated_subjects, 0);
  EXPECT_GT(no_final_newline, 0);
  EXPECT_GT(canonical_first, 0);
  EXPECT_GT(canonical_second, 0);
  EXPECT_GT(escaped_across_chunks, 0);
}

TEST(NTriplesDifferentialTest, MultiChunkLubmLines) {
  datagen::LubmOptions opts;
  opts.universities = 1;
  ExpectChunkedLoaderMatchesReference(datagen::GenerateLubm(opts), /*seed=*/25,
                                      /*docs=*/24);
}

TEST(NTriplesDifferentialTest, MultiChunkYagoLines) {
  datagen::YagoOptions opts;
  opts.num_entities = 2000;
  ExpectChunkedLoaderMatchesReference(datagen::GenerateYago(opts), /*seed=*/26,
                                      /*docs=*/24);
}

// ---------------------------------------------------------------------------
// LoadNTriplesFile maps a regular non-empty file and reads anything else; a
// file parses exactly like its text.

void ExpectFileLoadsLikeText(const std::string& path, const std::string& text) {
  Graph from_file, from_text;
  const Status got = LoadNTriplesFile(path, &from_file);
  ASSERT_TRUE(got.ok()) << got.ToString();
  ASSERT_TRUE(ParseNTriples(text, &from_text).ok());
  EXPECT_EQ(Keys(from_file.dict()), Keys(from_text.dict()));
  EXPECT_EQ(Triples(from_file), Triples(from_text));
}

TEST(LoadFileTest, EmptyFile) {
  const std::string path = WriteTempFile("load_empty.nt", "");
  ExpectFileLoadsLikeText(path, "");
  Graph g;
  ASSERT_TRUE(LoadNTriplesFile(path, &g).ok());
  EXPECT_EQ(g.dict().size(), 0u);
}

TEST(LoadFileTest, NoFinalNewline) {
  const std::string text = "<http://x/a> <http://x/p> <http://x/b> .\n"
                           "<http://x/b> <http://x/p> \"end\" .";
  ExpectFileLoadsLikeText(WriteTempFile("load_no_newline.nt", text), text);
}

TEST(LoadFileTest, LastLineIsAComment) {
  for (const char* text : {"<http://x/a> <http://x/p> <http://x/b> .\n# end",
                           "<http://x/a> <http://x/p> <http://x/b> .\n# end\n",
                           "<http://x/a> <http://x/p> <http://x/b> .\n#"}) {
    ExpectFileLoadsLikeText(WriteTempFile("load_comment.nt", text), text);
  }
}

// A FIFO has no size to map: the loader reads it to its end, across many
// reads.
TEST(LoadFileTest, FifoIsReadToItsEnd) {
  const std::string path = ::testing::TempDir() + "/load_fifo.nt";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "<http://x/s" + std::to_string(i % 700) + "> <http://x/p> \"v" +
            std::to_string(i) + "\" .\n";
  }
  ASSERT_GT(text.size(), 1u << 16);
  std::thread writer([&] { std::ofstream(path, std::ios::binary) << text; });
  Graph from_fifo;
  const Status st = LoadNTriplesFile(path, &from_fifo);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  Graph from_text;
  ASSERT_TRUE(ParseNTriples(text, &from_text).ok());
  EXPECT_EQ(Keys(from_fifo.dict()), Keys(from_text.dict()));
  EXPECT_EQ(Triples(from_fifo), Triples(from_text));
}

// A file of several chunks, loaded on a 4-thread pool, gets the ids and
// triples of a one-chunk parse of its text.
TEST(LoadFileTest, ChunkedOnAFourThreadPool) {
  datagen::LubmOptions opts;
  opts.universities = 1;
  const std::string text = WriteNTriples(datagen::GenerateLubm(opts));
  ASSERT_GT(NTriplesChunks(text, 4).size(), 8u);
  const std::string path = WriteTempFile("load_chunked.nt", text);
  util::ThreadPool four(4), one(1);
  Graph from_file, from_text;
  const Status st = LoadNTriplesFile(path, &from_file, &four);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(ParseNTriples(text, &from_text, &one).ok());
  EXPECT_EQ(Keys(from_file.dict()), Keys(from_text.dict()));
  EXPECT_EQ(Triples(from_file), Triples(from_text));
}

TEST(LoadFileTest, MissingFileNamesThePath) {
  const std::string path = ::testing::TempDir() + "/no_such_file.nt";
  Graph g;
  const Status st = LoadNTriplesFile(path, &g);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), "cannot open " + path);
}

TEST(TurtleTest, PrefixesAndSemicolons) {
  Graph g;
  std::string ttl = R"(
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:alice a ex:Person ;
    ex:name "Alice" ;
    ex:knows ex:bob, ex:carol .
ex:bob ex:age 42 .
)";
  ASSERT_TRUE(ParseTurtle(ttl, &g).ok());
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 5u);
  auto type = g.dict().FindIri(vocab::kRdfType);
  auto alice = g.dict().FindIri("http://example.org/alice");
  auto person = g.dict().FindIri("http://example.org/Person");
  ASSERT_TRUE(type && alice && person);
  EXPECT_TRUE(g.Contains(*alice, *type, *person));
}

TEST(TurtleTest, AnonymousBlankNodes) {
  Graph g;
  std::string ttl = R"(
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:Shape a sh:NodeShape ;
    sh:targetClass ex:Person ;
    sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path ex:knows ; sh:minCount 0 ] .
)";
  ASSERT_TRUE(ParseTurtle(ttl, &g).ok());
  g.Finalize();
  // 2 triples on the shape head + 2 sh:property links + 3 + 2 inside brackets.
  EXPECT_EQ(g.NumTriples(), 9u);
  auto path = g.dict().FindIri("http://www.w3.org/ns/shacl#path");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(g.CountMatches(std::nullopt, *path, std::nullopt), 2u);
}

TEST(TurtleTest, IntegerAndDecimalLiterals) {
  Graph g;
  ASSERT_TRUE(ParseTurtle("@prefix ex: <http://e/> . ex:s ex:p 7 ; ex:q 1.5 .", &g).ok());
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 2u);
  auto seven = g.dict().Find(Term::Literal("7", std::string(vocab::kXsdInteger)));
  EXPECT_TRUE(seven.has_value());
}

TEST(TurtleTest, LangTaggedLiteral) {
  Graph g;
  ASSERT_TRUE(ParseTurtle("@prefix ex: <http://e/> . ex:s ex:p \"hi\"@en .", &g).ok());
  g.Finalize();
  EXPECT_TRUE(g.dict().Find(Term::Literal("hi", "", "en")).has_value());
}

TEST(TurtleTest, Errors) {
  for (const char* bad : {
           "ex:s ex:p ex:o .",                       // undeclared prefix
           "@prefix ex: <http://e/> . ex:s ex:p .",  // missing object
           "@prefix ex: <http://e/> . ex:s ex:p ex:o",  // missing dot
           "@prefix ex: <http://e/> . ex:s ex:p [ ex:q .",  // unclosed bracket
       }) {
    Graph g;
    EXPECT_FALSE(ParseTurtle(bad, &g).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Match() ordering contract: the span returned for every bound-position
// signature is sorted by its free components in MatchOrder() sequence.
// The physical merge-join operator depends on this (src/phys).

TEST(MatchOrderTest, CoversExactlyTheFreeComponents) {
  EXPECT_EQ(Graph::MatchOrder(false, false, false), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Graph::MatchOrder(true, false, false), (std::vector<int>{1, 2}));
  EXPECT_EQ(Graph::MatchOrder(false, true, false), (std::vector<int>{2, 0}));
  EXPECT_EQ(Graph::MatchOrder(false, false, true), (std::vector<int>{0, 1}));
  EXPECT_EQ(Graph::MatchOrder(true, true, false), (std::vector<int>{2}));
  EXPECT_EQ(Graph::MatchOrder(true, false, true), (std::vector<int>{1}));
  EXPECT_EQ(Graph::MatchOrder(false, true, true), (std::vector<int>{0}));
  EXPECT_EQ(Graph::MatchOrder(true, true, true), std::vector<int>{});
}

TEST(MatchOrderTest, SpansAreSortedByTheDocumentedComponents) {
  // A graph with repeated subjects, predicates and objects so every index
  // has multi-triple runs.
  Graph g;
  Rng rng(7);
  Term subs[] = {Term::Iri("http://x/s1"), Term::Iri("http://x/s2"),
                 Term::Iri("http://x/s3"), Term::Iri("http://x/s4")};
  Term preds[] = {Term::Iri("http://x/p1"), Term::Iri("http://x/p2"),
                  Term::Iri("http://x/p3")};
  Term objs[] = {Term::Iri("http://x/o1"), Term::Iri("http://x/o2"),
                 Term::Iri("http://x/o3"), Term::Iri("http://x/o4"),
                 Term::Iri("http://x/o5")};
  for (int i = 0; i < 200; ++i) {
    g.Add(subs[rng.Uniform(0, 3)], preds[rng.Uniform(0, 2)], objs[rng.Uniform(0, 4)]);
  }
  g.Finalize();
  ASSERT_GT(g.NumTriples(), 0u);

  TermId s1 = *g.dict().FindIri("http://x/s1");
  TermId p1 = *g.dict().FindIri("http://x/p1");
  TermId o1 = *g.dict().FindIri("http://x/o1");

  auto comp = [](const Triple& t, int pos) {
    return pos == 0 ? t.s : (pos == 1 ? t.p : t.o);
  };
  struct Sig {
    OptId s, p, o;
  };
  const Sig sigs[] = {
      {std::nullopt, std::nullopt, std::nullopt},
      {s1, std::nullopt, std::nullopt},
      {std::nullopt, p1, std::nullopt},
      {std::nullopt, std::nullopt, o1},
      {s1, p1, std::nullopt},
      {s1, std::nullopt, o1},
      {std::nullopt, p1, o1},
      {s1, p1, o1},
  };
  for (const Sig& sig : sigs) {
    SCOPED_TRACE(testing::Message()
                 << "bound: " << sig.s.has_value() << sig.p.has_value()
                 << sig.o.has_value());
    std::vector<int> order = Graph::MatchOrder(
        sig.s.has_value(), sig.p.has_value(), sig.o.has_value());
    auto span = g.Match(sig.s, sig.p, sig.o);
    // Every triple matches the constants.
    for (const Triple& t : span) {
      if (sig.s) {
        EXPECT_EQ(t.s, *sig.s);
      }
      if (sig.p) {
        EXPECT_EQ(t.p, *sig.p);
      }
      if (sig.o) {
        EXPECT_EQ(t.o, *sig.o);
      }
    }
    // The span is sorted by the free components, most significant first,
    // with no duplicate triples (free components strictly increase).
    for (size_t i = 1; i < span.size(); ++i) {
      bool strictly_less = false;
      for (int pos : order) {
        if (comp(span[i - 1], pos) != comp(span[i], pos)) {
          EXPECT_LT(comp(span[i - 1], pos), comp(span[i], pos));
          strictly_less = true;
          break;
        }
      }
      EXPECT_TRUE(strictly_less) << "duplicate triple at " << i;
    }
    // Completeness against the brute-force oracle.
    uint64_t expected = 0;
    for (const Triple& t : g.triples()) {
      if ((!sig.s || t.s == *sig.s) && (!sig.p || t.p == *sig.p) &&
          (!sig.o || t.o == *sig.o)) {
        ++expected;
      }
    }
    EXPECT_EQ(span.size(), expected);
  }
}

TEST(MatchOrderTest, EmptyRangesAreValidSpans) {
  Graph g;
  g.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
        Term::Iri("http://x/o"));
  g.Finalize();
  TermId s = *g.dict().FindIri("http://x/s");
  TermId p = *g.dict().FindIri("http://x/p");
  TermId o = *g.dict().FindIri("http://x/o");
  // Unknown-id probes and contradictory combinations all yield empty (but
  // valid) spans, never errors.
  TermId bogus = static_cast<TermId>(9999);
  EXPECT_TRUE(g.Match(bogus, std::nullopt, std::nullopt).empty());
  EXPECT_TRUE(g.Match(std::nullopt, bogus, std::nullopt).empty());
  EXPECT_TRUE(g.Match(std::nullopt, std::nullopt, bogus).empty());
  EXPECT_TRUE(g.Match(o, p, s).empty() || s == o);  // swapped ends
  EXPECT_TRUE(g.PredicateBySubject(bogus).empty());
  EXPECT_TRUE(g.PredicateByObject(bogus).empty());
  auto empty = g.Match(bogus, std::nullopt, std::nullopt);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
  // The non-empty case still matches.
  EXPECT_EQ(g.Match(s, p, o).size(), 1u);
}

// Every pattern over ids 0..max_id + 2 in each position, plus the largest
// 32-bit id, against the oracle (the bound values of two- and three-position
// patterns come from the same id list, so most of them miss).
void ExpectAllProbesMatchOracle(const Graph& g, TermId max_id) {
  std::vector<Triple> truth(g.triples().begin(), g.triples().end());
  std::vector<TermId> ids;
  for (TermId id = 0; id <= max_id + 2; ++id) ids.push_back(id);
  ids.push_back(~TermId{0});
  ExpectMatchesOracle(g, truth, std::nullopt, std::nullopt, std::nullopt);
  for (TermId a : ids) {
    ExpectMatchesOracle(g, truth, a, std::nullopt, std::nullopt);
    ExpectMatchesOracle(g, truth, std::nullopt, a, std::nullopt);
    ExpectMatchesOracle(g, truth, std::nullopt, std::nullopt, a);
    for (TermId b : ids) {
      ExpectMatchesOracle(g, truth, a, b, std::nullopt);
      ExpectMatchesOracle(g, truth, a, std::nullopt, b);
      ExpectMatchesOracle(g, truth, std::nullopt, a, b);
      for (TermId c : ids) ExpectMatchesOracle(g, truth, a, b, c);
    }
  }
}

TEST(GraphHeadTest, LargestIdOnlyAsObject) {
  // Raw ids: subjects 1-3, predicates 4-5, and the largest id, 12, occurs
  // only as an object; 7-11 occur nowhere.
  Graph g;
  g.Add(1, 4, 2);
  g.Add(1, 4, 12);
  g.Add(2, 5, 3);
  g.Add(3, 4, 12);
  g.Add(3, 5, 1);
  g.Add(1, 5, 6);
  g.Finalize();
  ExpectAllProbesMatchOracle(g, 12);
  EXPECT_EQ(g.Predicates(), (std::vector<TermId>{4, 5}));
  EXPECT_EQ(g.CountDistinctSubjects(), 3u);
  EXPECT_EQ(g.CountDistinctObjects(), 5u);  // 1, 2, 3, 6, 12
  EXPECT_EQ(g.Match(std::nullopt, std::nullopt, 12).size(), 2u);
  EXPECT_TRUE(g.Match(12, std::nullopt, std::nullopt).empty());
  EXPECT_TRUE(g.PredicateBySubject(12).empty());
  EXPECT_TRUE(g.PredicateByObject(kInvalidTermId).empty());
}

TEST(GraphHeadTest, EmptyGraphAnswersEveryProbeEmpty) {
  Graph g;
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 0u);
  ExpectAllProbesMatchOracle(g, 3);
  EXPECT_TRUE(g.Predicates().empty());
  EXPECT_EQ(g.CountDistinctSubjects(), 0u);
  EXPECT_EQ(g.CountDistinctObjects(), 0u);
  EXPECT_TRUE(g.PredicateBySubject(1).empty());
  EXPECT_TRUE(g.PredicateByObject(1).empty());
}

// The four indexes as comparison sorts define them: `staged` sorted and
// deduplicated by each component order.
struct ReferenceIndexes {
  std::vector<Triple> spo, pos, osp, pso;
};

ReferenceIndexes SortedReference(const std::vector<Triple>& staged) {
  auto sorted = [&](int a, int b, int c) {
    auto key = [&](const Triple& t) {
      const TermId parts[3] = {t.s, t.p, t.o};
      return std::tuple(parts[a], parts[b], parts[c]);
    };
    std::vector<Triple> out = staged;
    std::sort(out.begin(), out.end(), [&](const Triple& x, const Triple& y) {
      return key(x) < key(y);
    });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  return {sorted(0, 1, 2), sorted(1, 2, 0), sorted(2, 0, 1), sorted(1, 0, 2)};
}

// The triples of `index` whose components in the given positions equal the
// given ids, in index order.
std::vector<Triple> Filter(const std::vector<Triple>& index, OptId s, OptId p,
                           OptId o) {
  std::vector<Triple> out;
  for (const Triple& t : index) {
    if ((!s || *s == t.s) && (!p || *p == t.p) && (!o || *o == t.o)) {
      out.push_back(t);
    }
  }
  return out;
}

std::vector<Triple> Vec(std::span<const Triple> run) {
  return {run.begin(), run.end()};
}

// Finalizes `staged` on pools of 1, 2 and 4 threads and checks every index
// span, head-derived count and IndexBytes() against the comparison-sort
// reference.
void ExpectFinalizeMatchesSortReference(const std::vector<Triple>& staged) {
  const ReferenceIndexes ref = SortedReference(staged);
  TermId max_s = 0, max_p = 0, max_o = 0;
  for (const Triple& t : staged) {
    max_s = std::max(max_s, t.s);
    max_p = std::max(max_p, t.p);
    max_o = std::max(max_o, t.o);
  }
  const TermId max_id = std::max({max_s, max_p, max_o});
  std::vector<TermId> ids;
  for (TermId id = 0; id <= max_id + 2; ++id) ids.push_back(id);
  ids.push_back(~TermId{0});
  std::set<TermId> subjects, preds, objects;
  for (const Triple& t : ref.spo) {
    subjects.insert(t.s);
    preds.insert(t.p);
    objects.insert(t.o);
  }

  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    Graph g;
    for (const Triple& t : staged) g.Add(t.s, t.p, t.o);
    g.Finalize(&pool);
    ASSERT_EQ(g.NumTriples(), ref.spo.size());
    EXPECT_EQ(Vec(g.triples()), ref.spo);
    EXPECT_EQ(Vec(g.triples_by_object()), ref.osp);
    EXPECT_EQ(Vec(g.Match(std::nullopt, std::nullopt, std::nullopt)), ref.spo);
    for (TermId a : ids) {
      ASSERT_EQ(Vec(g.Match(a, std::nullopt, std::nullopt)),
                Filter(ref.spo, a, std::nullopt, std::nullopt)) << a;
      ASSERT_EQ(Vec(g.Match(std::nullopt, a, std::nullopt)),
                Filter(ref.pos, std::nullopt, a, std::nullopt)) << a;
      ASSERT_EQ(Vec(g.Match(std::nullopt, std::nullopt, a)),
                Filter(ref.osp, std::nullopt, std::nullopt, a)) << a;
      ASSERT_EQ(Vec(g.PredicateByObject(a)), Filter(ref.pos, std::nullopt, a,
                                                    std::nullopt)) << a;
      ASSERT_EQ(Vec(g.PredicateBySubject(a)), Filter(ref.pso, std::nullopt, a,
                                                     std::nullopt)) << a;
      std::set<TermId> s_of_p, o_of_p;
      for (const Triple& t : Filter(ref.spo, std::nullopt, a, std::nullopt)) {
        s_of_p.insert(t.s);
        o_of_p.insert(t.o);
      }
      EXPECT_EQ(g.CountDistinctSubjects(a), s_of_p.size()) << a;
      EXPECT_EQ(g.CountDistinctObjects(a), o_of_p.size()) << a;
    }
    // Two- and three-position probes at every present triple.
    for (const Triple& t : ref.spo) {
      ASSERT_EQ(Vec(g.Match(t.s, t.p, std::nullopt)),
                Filter(ref.spo, t.s, t.p, std::nullopt));
      ASSERT_EQ(Vec(g.Match(t.s, std::nullopt, t.o)),
                Filter(ref.osp, t.s, std::nullopt, t.o));
      ASSERT_EQ(Vec(g.Match(std::nullopt, t.p, t.o)),
                Filter(ref.pos, std::nullopt, t.p, t.o));
      ASSERT_EQ(Vec(g.Match(t.s, t.p, t.o)), std::vector<Triple>{t});
    }
    EXPECT_EQ(g.Predicates(), std::vector<TermId>(preds.begin(), preds.end()));
    EXPECT_EQ(g.CountDistinctSubjects(), subjects.size());
    EXPECT_EQ(g.CountDistinctObjects(), objects.size());
    // Four exactly-sized indexes, and heads of (largest id in their
    // position + 2) offsets each.
    EXPECT_EQ(g.IndexBytes(),
              4 * ref.spo.size() * sizeof(Triple) +
                  (size_t{max_s} + size_t{max_p} + size_t{max_o} + 6) *
                      sizeof(uint32_t));
  }
}

TEST(FinalizeTest, RandomTriplesWithManyDuplicates) {
  Rng rng(20);
  std::vector<Triple> staged;
  for (int i = 0; i < 3000; ++i) {
    staged.push_back(Triple{static_cast<TermId>(rng.Uniform(1, 40)),
                            static_cast<TermId>(rng.Uniform(1, 6)),
                            static_cast<TermId>(rng.Uniform(1, 50))});
  }
  ExpectFinalizeMatchesSortReference(staged);
}

TEST(FinalizeTest, SparseRawIdsPastTheDictionary) {
  // The dictionary is empty: every id is raw, most ids occur nowhere, and
  // each position has a different largest id.
  Rng rng(21);
  std::vector<Triple> staged;
  for (int i = 0; i < 400; ++i) {
    staged.push_back(Triple{static_cast<TermId>(rng.Uniform(1, 30) * 97),
                            static_cast<TermId>(rng.Uniform(1, 4) * 300),
                            static_cast<TermId>(rng.Uniform(1, 60) * 41)});
  }
  ExpectFinalizeMatchesSortReference(staged);
}

TEST(FinalizeTest, EmptyOneTripleAndAllDuplicates) {
  ExpectFinalizeMatchesSortReference({});
  ExpectFinalizeMatchesSortReference({Triple{3, 2, 1}});
  ExpectFinalizeMatchesSortReference(std::vector<Triple>(500, Triple{5, 7, 6}));
}

TEST(TurtleTest, NestedBlankNodes) {
  Graph g;
  std::string ttl =
      "@prefix ex: <http://e/> . ex:s ex:p [ ex:q [ ex:r ex:o ] ] .";
  ASSERT_TRUE(ParseTurtle(ttl, &g).ok());
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 3u);
}

}  // namespace
}  // namespace shapestats::rdf
