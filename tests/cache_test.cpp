// Tests for the plan cache subsystem (src/cache/): template
// canonicalization properties (rename/shuffle/constant invariance, no
// false sharing), LRU eviction, the feedback store's publication rules,
// the corrected estimate provider, and the engine integration — cached
// executions must be byte-identical to uncached ones across pool sizes,
// and ledger feedback must be able to flip a plan without changing its
// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/feedback_store.h"
#include "cache/plan_cache.h"
#include "cache/template_key.h"
#include "card/corrected.h"
#include "datagen/lubm.h"
#include "datagen/yago.h"
#include "engine/query_engine.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:a rdf:type ex:Item ; ex:price 10 ; ex:label "alpha" ; ex:link ex:b .
ex:b rdf:type ex:Item ; ex:price 25 ; ex:label "beta" ; ex:link ex:c .
ex:c rdf:type ex:Item ; ex:price 25 ; ex:label "gamma" ; ex:link ex:d .
ex:d rdf:type ex:Other ; ex:price 40 ; ex:label "delta" ; ex:link ex:a .
)";

class TemplateKeyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kData, &graph_).ok());
    graph_.Finalize();
    rdf_type_ = graph_.dict()
                    .FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
                    .value_or(rdf::kInvalidTermId);
    ASSERT_NE(rdf_type_, rdf::kInvalidTermId);
  }

  cache::CanonicalTemplate Canon(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph_.dict());
    return cache::CanonicalizeTemplate(*q, bgp, rdf_type_);
  }

  std::string Key(const std::string& text) {
    cache::CanonicalTemplate t = Canon(text);
    EXPECT_TRUE(t.cacheable) << t.bypass_reason << "\n" << text;
    return t.key;
  }

  rdf::Graph graph_;
  rdf::TermId rdf_type_ = rdf::kInvalidTermId;
};

TEST_F(TemplateKeyFixture, RenamedVariablesShareKey) {
  std::string a = Key(
      "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
      "{ ?x ex:link ?y . ?x ex:price ?p }");
  std::string b = Key(
      "PREFIX ex: <http://ex/> SELECT ?s ?t WHERE "
      "{ ?s ex:link ?t . ?s ex:price ?cost }");
  EXPECT_EQ(a, b);
}

TEST_F(TemplateKeyFixture, ShuffledPatternsShareKey) {
  // Star with distinct predicates.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:price ?p . ?x ex:label ?l . ?x ex:link ?y }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:link ?y . ?x ex:price ?p . ?x ex:label ?l }"));
  // Path whose patterns share one predicate — structural signatures tie,
  // so ordering must come from the refinement, not the input order.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?a WHERE "
                "{ ?a ex:link ?b . ?b ex:link ?c . ?c ex:link ?d }"),
            Key("PREFIX ex: <http://ex/> SELECT ?z WHERE "
                "{ ?y ex:link ?w . ?z ex:link ?x . ?x ex:link ?y }"));
}

TEST_F(TemplateKeyFixture, ConstantsParameterizeButPreserveDistinctness) {
  // Different bound objects of a non-rdf:type predicate: one template.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:link ex:b }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:link ex:c }"));
  // Repeated constant vs. two distinct constants: different templates
  // (the equality class changes which joins are implied).
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
                "{ ?x ex:link ex:b . ?y ex:link ex:b }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
                "{ ?x ex:link ex:b . ?y ex:link ex:c }"));
}

TEST_F(TemplateKeyFixture, SemanticsStayConcrete) {
  // Predicates select the statistics: never merged.
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:label ?p }"));
  // rdf:type objects are class anchors: never merged.
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Item }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Other }"));
  // FILTER constants are value-sensitive: never merged.
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:price ?p . FILTER(?p > 10) }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:price ?p . FILTER(?p > 25) }"));
  // Query form / modifiers are part of the key.
  std::string base =
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p }";
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE "
                "{ ?x ex:price ?p }"));
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p } "
                "ORDER BY ?x"));
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> SELECT ?p WHERE { ?x ex:price ?p }"));
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> ASK WHERE { ?x ex:price ?p }"));
}

TEST_F(TemplateKeyFixture, LimitExcludedFromKey) {
  // LIMIT/OFFSET are applied per-instance, not planned: one template.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p } "
                "LIMIT 2"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p } "
                "LIMIT 5 OFFSET 1"));
}

TEST_F(TemplateKeyFixture, MissingConstantBypasses) {
  cache::CanonicalTemplate t = Canon(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:link ex:nosuch }");
  EXPECT_FALSE(t.cacheable);
  EXPECT_EQ(t.bypass_reason, "missing-constant");
}

TEST_F(TemplateKeyFixture, RandomizedRenameShuffleInvariance) {
  // A bank of structurally distinct templates. For each: every shuffled +
  // renamed variant maps to the same key; across templates, keys are
  // pairwise distinct.
  const std::vector<std::vector<std::string>> banks = {
      {"?A ex:link ?B", "?B ex:price ?C"},
      {"?A ex:link ?B", "?B ex:link ?C"},
      {"?A ex:link ?B", "?A ex:price ?C"},
      {"?A ex:price ?B", "?C ex:price ?D"},
      {"?A a ex:Item", "?A ex:link ?B", "?B ex:price ?C"},
      {"?A a ex:Other", "?A ex:link ?B", "?B ex:price ?C"},
      {"?A ex:link ?B", "?B ex:link ?C", "?C ex:link ?A"},
  };
  std::mt19937 rng(12345);
  const char* names[] = {"?v0", "?v1", "?v2", "?v3", "?v4", "?v5"};
  std::vector<std::string> canon_keys;
  for (const auto& bank : banks) {
    std::string ref;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::string> pats = bank;
      std::shuffle(pats.begin(), pats.end(), rng);
      std::vector<int> perm = {0, 1, 2, 3, 4, 5};
      std::shuffle(perm.begin(), perm.end(), rng);
      std::string where;
      for (std::string p : pats) {
        for (int v = 0; v < 6; ++v) {
          const std::string from = {'?', char('A' + v)};
          size_t pos;
          while ((pos = p.find(from)) != std::string::npos) {
            p.replace(pos, from.size(), names[perm[v]]);
          }
        }
        where += p + " . ";
      }
      std::string key =
          Key("PREFIX ex: <http://ex/> SELECT * WHERE { " + where + "}");
      if (trial == 0) {
        ref = key;
      } else {
        EXPECT_EQ(key, ref) << "variant diverged: { " << where << "}";
      }
    }
    for (const std::string& other : canon_keys) EXPECT_NE(ref, other);
    canon_keys.push_back(ref);
  }
}

TEST_F(TemplateKeyFixture, LargeBgpKeyIgnoresPatternOrderAndNames) {
  // A 70-pattern path, shuffled and renamed.
  std::vector<std::string> pats, renamed;
  for (int i = 0; i < 70; ++i) {
    pats.push_back("?v" + std::to_string(i) + " ex:link ?v" +
                   std::to_string(i + 1));
    renamed.push_back("?w" + std::to_string(70 - i) + " ex:link ?w" +
                      std::to_string(69 - i));
  }
  std::mt19937 rng(7);
  std::shuffle(renamed.begin(), renamed.end(), rng);
  auto query = [](const std::vector<std::string>& ps, const char* var) {
    std::string q = std::string("PREFIX ex: <http://ex/> SELECT ") + var +
                    " WHERE { ";
    for (const std::string& p : ps) q += p + " . ";
    return q + "}";
  };
  EXPECT_EQ(Key(query(pats, "?v0")), Key(query(renamed, "?w70")));
  EXPECT_NE(Key(query(pats, "?v0")), Key(query(pats, "?v1")));
}

// --- PlanCache unit behavior ---

TEST(PlanCacheTest, LruEvictionAndStats) {
  cache::PlanCache::Options opts;
  opts.capacity = 2;
  cache::PlanCache pc(opts);
  auto entry = [] { return std::make_shared<cache::CachedPlan>(); };
  pc.Put("a", entry());
  pc.Put("b", entry());
  ASSERT_NE(pc.Get("a"), nullptr);  // a is now most recent
  pc.Put("c", entry());             // evicts b
  EXPECT_EQ(pc.Get("b"), nullptr);
  EXPECT_NE(pc.Get("a"), nullptr);
  EXPECT_NE(pc.Get("c"), nullptr);
  cache::PlanCache::StatsSnapshot s = pc.stats();
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(PlanCacheTest, FeedbackVersionInvalidatesEntry) {
  cache::PlanCache pc;
  auto e = std::make_shared<cache::CachedPlan>();
  e->template_hash = 42;
  e->feedback_version = pc.feedback().Version(42);
  pc.Put("k", std::move(e));
  ASSERT_NE(pc.Get("k"), nullptr);
  // Three strongly-drifted observations publish a factor and bump the
  // template's version; the entry now reads as stale.
  for (int i = 0; i < 3; ++i) {
    pc.RecordFeedback(42, {{0, 4.0}});
  }
  EXPECT_GT(pc.feedback().Version(42), 0u);
  EXPECT_EQ(pc.Get("k"), nullptr);
  EXPECT_GE(pc.stats().invalidations, 1u);
}

TEST(FeedbackStoreTest, PublicationRules) {
  cache::FeedbackStore fs;
  // Below kMinObservations: nothing published.
  EXPECT_EQ(fs.Record(1, {{0, 8.0}}), 0u);
  EXPECT_EQ(fs.Record(1, {{0, 8.0}}), 0u);
  EXPECT_EQ(fs.Factors(1, 1)[0], 1.0);
  EXPECT_EQ(fs.Version(1), 0u);
  // Third observation publishes the geometric mean.
  EXPECT_EQ(fs.Record(1, {{0, 8.0}}), 1u);
  EXPECT_NEAR(fs.Factors(1, 1)[0], 8.0, 1e-9);
  EXPECT_EQ(fs.Version(1), 1u);
  // Tiny drift never publishes.
  for (int i = 0; i < 10; ++i) fs.Record(2, {{0, 1.05}});
  EXPECT_EQ(fs.Factors(2, 1)[0], 1.0);
  EXPECT_EQ(fs.Version(2), 0u);
  // Factors clamp at kMaxFactor.
  for (int i = 0; i < 3; ++i) fs.Record(3, {{0, 1e9}});
  EXPECT_LE(fs.Factors(3, 1)[0], 1024.0);
  // Non-finite / non-positive ratios are ignored.
  EXPECT_EQ(fs.Record(4, {{0, 0.0}, {0, -3.0}}), 0u);
  EXPECT_EQ(fs.Factors(4, 1)[0], 1.0);
}

namespace {
class FakeProvider : public card::PlannerStatsProvider {
 public:
  std::string name() const override { return "fake"; }
  std::vector<card::TpEstimate> EstimateAll(
      const sparql::EncodedBgp& bgp) const override {
    return std::vector<card::TpEstimate>(bgp.patterns.size(),
                                         {100.0, 50.0, 40.0});
  }
};
}  // namespace

TEST(CorrectedProviderTest, ScalesCardAndCapsDistincts) {
  FakeProvider base;
  sparql::EncodedBgp bgp;
  bgp.patterns.resize(2);
  card::CorrectedProvider grow(base, {4.0, 1.0});
  std::vector<card::TpEstimate> est = grow.EstimateAll(bgp);
  EXPECT_NEAR(est[0].card, 400.0, 1e-9);
  EXPECT_NEAR(est[0].dsc, 50.0, 1e-9);  // growing never inflates distincts
  EXPECT_NEAR(est[1].card, 100.0, 1e-9);
  card::CorrectedProvider shrink(base, {0.1, 1.0});
  est = shrink.EstimateAll(bgp);
  EXPECT_NEAR(est[0].card, 10.0, 1e-9);
  // Distinct counts cannot exceed the corrected row count.
  EXPECT_NEAR(est[0].dsc, 10.0, 1e-9);
  EXPECT_NEAR(est[0].doc, 10.0, 1e-9);
  EXPECT_EQ(grow.name(), "fake");  // ledger label stability
}

// --- engine integration ---

std::string TableDigest(const rdf::Graph& g, const exec::ResultTable& t) {
  std::string out;
  for (const std::string& v : t.var_names) out += v + "|";
  out += "\n";
  for (const auto& row : t.rows) {
    for (rdf::TermId id : row) out += g.dict().ToNTriples(id) + "|";
    out += "\n";
  }
  return out;
}

const std::vector<std::string>& LubmQueries() {
  static const std::vector<std::string> queries = {
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . "
      "?x a ub:GraduateStudent }",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y ?z WHERE { ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y "
      ". ?x ub:degreeFrom ?y }",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x WHERE { ?x a ub:FullProfessor . ?x ub:teacherOf ?c } "
      "ORDER BY ?x LIMIT 20",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?s ?e WHERE { ?s ub:emailAddress ?e . ?s a ub:Lecturer }",
  };
  return queries;
}

class CacheEngineFixture : public ::testing::Test {
 protected:
  static engine::QueryEngine MakeEngine(
      engine::EngineOptions::PlanCacheMode mode) {
    datagen::LubmOptions dopts;
    dopts.universities = 2;
    engine::EngineOptions opts;
    opts.plan_cache = mode;
    auto e = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }
};

TEST_F(CacheEngineFixture, CachedResultsByteIdenticalToUncached) {
  engine::QueryEngine off = MakeEngine(engine::EngineOptions::PlanCacheMode::kOff);
  engine::QueryEngine on = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  ASSERT_EQ(off.plan_cache(), nullptr);
  ASSERT_NE(on.plan_cache(), nullptr);
  for (const std::string& q : LubmQueries()) {
    auto base = off.Execute(q);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    // First run misses and populates; second run must hit and match byte
    // for byte.
    auto cold = on.Execute(q);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto warm = on.Execute(q);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(TableDigest(off.graph(), base->table),
              TableDigest(on.graph(), cold->table));
    EXPECT_EQ(TableDigest(on.graph(), cold->table),
              TableDigest(on.graph(), warm->table));
    EXPECT_EQ(warm->plan.order, cold->plan.order);
  }
  cache::PlanCache::StatsSnapshot s = on.plan_cache()->stats();
  EXPECT_EQ(s.size, LubmQueries().size());
  EXPECT_GE(s.hits, LubmQueries().size());
}

TEST_F(CacheEngineFixture, SemanticallyIdenticalQueriesShareOneEntry) {
  engine::QueryEngine eng = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  const std::string q1 =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?x a ub:GraduateStudent }";
  // Renamed variables AND shuffled patterns.
  const std::string q2 =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?s ?adv WHERE { ?s a ub:GraduateStudent . ?s ub:advisor ?adv }";
  auto r1 = eng.Execute(q1);
  auto r2 = eng.Execute(q2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->table.rows.size(), r2->table.rows.size());
  cache::PlanCache::StatsSnapshot s = eng.plan_cache()->stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(CacheEngineFixture, BatchPoolSizesProduceIdenticalResults) {
  engine::QueryEngine off = MakeEngine(engine::EngineOptions::PlanCacheMode::kOff);
  engine::QueryEngine on = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  // Duplicate the workload so the second copies hit the warm cache even
  // within one batch.
  std::vector<std::string> workload = LubmQueries();
  workload.insert(workload.end(), LubmQueries().begin(), LubmQueries().end());
  engine::BatchResult ref = off.ExecuteBatch(workload);
  for (unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    engine::BatchOptions bopts;
    bopts.pool = &pool;
    engine::BatchResult got = on.ExecuteBatch(workload, bopts);
    ASSERT_EQ(got.results.size(), ref.results.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(ref.results[i].ok());
      ASSERT_TRUE(got.results[i].ok()) << got.results[i].status().ToString();
      EXPECT_EQ(TableDigest(off.graph(), ref.results[i]->table),
                TableDigest(on.graph(), got.results[i]->table))
          << "pool=" << threads << " query=" << i;
    }
  }
  EXPECT_GE(on.plan_cache()->stats().hits, LubmQueries().size());
}

// Skewed dataset where global statistics mis-estimate a bound-object scan
// by 6x: ex:hot has 100 triples over 10 distinct objects (estimate 10 per
// object) but hot0 actually matches 60 subjects. ex:flag has 30 triples.
std::string SkewedData() {
  std::string data = "@prefix ex: <http://ex/> .\n";
  for (int i = 0; i < 100; ++i) {
    std::string obj = i < 60 ? "ex:hot0" : "ex:hot" + std::to_string(1 + i % 9);
    data += "ex:s" + std::to_string(i) + " ex:hot " + obj + " .\n";
  }
  for (int i = 0; i < 30; ++i) {
    data += "ex:s" + std::to_string(i) + " ex:flag ex:on .\n";
  }
  return data;
}

TEST(FeedbackCorrectionTest, LearnedFactorsFlipPlanWithoutChangingResults) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(SkewedData(), &g).ok());
  g.Finalize();
  engine::EngineOptions opts;
  opts.optimizer = engine::EngineOptions::Optimizer::kGlobalStats;
  opts.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
  auto opened = engine::QueryEngine::Open(std::move(g), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  engine::QueryEngine eng = std::move(opened).value();

  // Estimated: hot-scan 100/10 = 10 rows < flag-scan 30 rows, so the
  // uncorrected plan opens with the hot pattern. True: 60 > 30.
  const std::string q =
      "PREFIX ex: <http://ex/> SELECT ?x WHERE "
      "{ ?x ex:hot ex:hot0 . ?x ex:flag ?v }";
  std::vector<std::string> digests;
  std::vector<std::vector<uint32_t>> orders;
  for (int run = 0; run < 4; ++run) {
    obs::QueryTrace trace;  // feedback only folds in on traced executions
    auto r = eng.Execute(q, &trace);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    digests.push_back(TableDigest(eng.graph(), r->table));
    orders.push_back(r->plan.order);
    if (run == 0) {
      EXPECT_TRUE(r->plan.correction_factors.empty());
    }
    if (run == 3) {
      // Versions bumped after run 3's publication: this run re-planned
      // under the learned factors.
      EXPECT_FALSE(r->plan.correction_factors.empty());
      EXPECT_TRUE(trace.est_corrected);
    }
  }
  // Results never change...
  for (const std::string& d : digests) EXPECT_EQ(d, digests[0]);
  // ...but the learned 6x under-estimate flips the opening scan.
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_NE(orders[3], orders[0]);
  EXPECT_GE(eng.plan_cache()->stats().invalidations, 1u);
  EXPECT_GE(eng.plan_cache()->feedback().NumPublished(), 1u);

  // EXPLAIN surfaces the correction.
  auto ex = eng.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_NE(ex->find("est: corrected"), std::string::npos) << *ex;
}

TEST_F(CacheEngineFixture, ExplainReportsCacheState) {
  engine::QueryEngine eng = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  const std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?x a ub:GraduateStudent }";
  auto cold = eng.Explain(q);
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold->find("plan: not cached (template t:"), std::string::npos)
      << *cold;
  ASSERT_TRUE(eng.Execute(q).ok());
  auto warm = eng.Explain(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("plan: cached (t:"), std::string::npos) << *warm;
}

// --- One-pass front end ------------------------------------------------------
// The engine parses and encodes in one pass (sparql::ParseQuery with a
// BgpEncoder); the layered ParseQuery -> EncodeBgp -> CanonicalizeTemplate
// functions stay for callers holding only a ParsedQuery. Both must agree on
// every query, and the template keys must stay what they were before the
// one-pass front end existed.

/// Lookup-shaped LUBM queries with their anchors drawn (seeded) from `g`,
/// in every query form, plus the front end's corner cases: a repeated
/// anchor, constants absent from the data, FILTER between patterns, a
/// projection order unlike the pattern order, `a`, full IRIs, a variable
/// predicate, a redeclared prefix, and literals with a language tag, a
/// datatype and escapes.
std::vector<std::string> LookupShapedQueries(const rdf::Graph& g) {
  const std::string ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
  const std::string prefix = "PREFIX ub: <" + ub + ">\n";
  const rdf::TermId type =
      *g.dict().FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  std::mt19937_64 rng(20261017);
  auto draw = [&](const std::string& cls) {
    auto members = g.Match(std::nullopt, type, *g.dict().FindIri(ub + cls));
    return g.dict().ToNTriples(members[rng() % members.size()].s);
  };
  struct Shape {
    const char* cls;   // class of the anchor `$`
    const char* text;  // query after the ub: prefix
  };
  const Shape kShapes[] = {
      {"FullProfessor",
       "SELECT ?e ?n WHERE { $ a ub:FullProfessor . $ ub:name ?n . "
       "$ ub:emailAddress ?e }"},
      {"Department",
       "SELECT ?v ?x WHERE { ?x ub:worksFor $ FILTER(?v != \"x\") "
       "?x ub:name ?v . FILTER(?x != $) }"},
      {"GraduateStudent",
       "SELECT ?dn ?p WHERE { $ ub:advisor ?p . ?p ub:worksFor ?d . "
       "?d ub:name ?dn } LIMIT 5"},
      {"UndergraduateStudent",
       "ASK { $ ub:takesCourse ?k . ?t ub:teacherOf ?k . ?t ub:name ?tn }"},
      {"AssistantProfessor",
       "SELECT (COUNT(*) AS ?c) WHERE { ?s ub:takesCourse ?k . "
       "$ ub:teacherOf ?k }"},
      {"Department",
       "SELECT DISTINCT ?n WHERE { ?x ub:memberOf $ . ?x ub:name ?n } "
       "ORDER BY DESC(?n) OFFSET 2 LIMIT 3"},
      {"Department",
       "SELECT ?x WHERE { ?x ub:name \"no such name\" . ?x ub:worksFor $ }"},
      {"GraduateStudent",
       "SELECT ?x WHERE { ?x ub:advisor <http://example.org/missing> . "
       "$ ub:advisor ?x }"},
      {"Lecturer",
       "SELECT ?n WHERE { $ <http://swat.cse.lehigh.edu/onto/"
       "univ-bench.owl#name> ?n . $ a <http://swat.cse.lehigh.edu/onto/"
       "univ-bench.owl#Lecturer> }"},
      {"Course", "SELECT ?p ?o WHERE { $ ?p ?o . ?s ub:takesCourse $ }"},
      {"University",
       "SELECT * WHERE { ?d ub:subOrganizationOf $ . ?d ub:name ?n . "
       "?d ub:name \"caf\\u00e9 \\\"quoted\\\" \\\\ tab\\t\"@en }"},
      {"AssociateProfessor",
       "SELECT ?x WHERE { ?x ub:advisor $ . "
       "?x ub:age \"23\"^^<http://www.w3.org/2001/XMLSchema#integer> . "
       "?x ub:rank 42 . ?x ub:score -3.5 }"},
  };
  std::vector<std::string> out;
  for (int round = 0; round < 8; ++round) {
    for (const Shape& s : kShapes) {
      const std::string anchor = draw(s.cls);
      std::string text = s.text;
      for (size_t at = text.find('$'); at != std::string::npos;
           at = text.find('$', at + anchor.size())) {
        text.replace(at, 1, anchor);
      }
      out.push_back(prefix + text);
    }
  }
  out.push_back(
      "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n" + prefix +
      "# a comment line\nSELECT ?x WHERE {\n  ?x ub:age \"7\"^^xsd:integer .\n"
      "  ?x a ub:GraduateStudent .\n}");
  out.push_back("PREFIX ub: <http://example.org/wrong#>\n" + prefix +
                "SELECT ?x WHERE { ?x a ub:FullProfessor }");
  return out;
}

/// Splits a query corpus: queries separated by blank lines, '#' comment
/// lines dropped.
std::vector<std::string> SplitCorpus(const std::string& text) {
  std::vector<std::string> queries;
  std::string current;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      if (!current.empty()) queries.push_back(current);
      current.clear();
    } else if (line[line.find_first_not_of(" \t")] != '#') {
      current += line + "\n";
    }
  }
  if (!current.empty()) queries.push_back(current);
  return queries;
}

/// FNV-1a over one canonicalization outcome.
uint64_t FoldTemplate(uint64_t h, const cache::CanonicalTemplate& t) {
  auto bytes = [&h](std::string_view s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  };
  bytes(t.cacheable ? "cacheable" : "bypass");
  bytes(t.bypass_reason);
  bytes(t.key);
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((t.hash >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

void ExpectSameBgp(const sparql::EncodedBgp& fused,
                   const sparql::EncodedBgp& layered) {
  EXPECT_EQ(fused.var_names, layered.var_names);
  ASSERT_EQ(fused.patterns.size(), layered.patterns.size());
  for (size_t i = 0; i < fused.patterns.size(); ++i) {
    const sparql::EncodedPattern& a = fused.patterns[i];
    const sparql::EncodedPattern& b = layered.patterns[i];
    EXPECT_EQ(a.input_index, b.input_index);
    const sparql::EncodedTerm fa[3] = {a.s, a.p, a.o};
    const sparql::EncodedTerm fb[3] = {b.s, b.p, b.o};
    for (int pos = 0; pos < 3; ++pos) {
      EXPECT_EQ(fa[pos].kind, fb[pos].kind) << "pattern " << i << " pos " << pos;
      EXPECT_EQ(fa[pos].id, fb[pos].id) << "pattern " << i << " pos " << pos;
    }
  }
}

/// The paper's LUBM and YAGO queries, the LUBM corpus file and the
/// lookup-shaped queries, each with the graph it runs on.
std::vector<std::pair<const rdf::Graph*, std::string>> FrontEndCorpus(
    const rdf::Graph& lubm, const rdf::Graph& yago) {
  std::vector<std::pair<const rdf::Graph*, std::string>> corpus;
  for (const auto& q : workload::LubmQueries()) corpus.push_back({&lubm, q.text});
  for (const auto& q : workload::YagoQueries()) corpus.push_back({&yago, q.text});
  auto file = ReadFile(SHAPESTATS_LUBM_CORPUS);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (file.ok()) {
    for (const std::string& q : SplitCorpus(*file)) corpus.push_back({&lubm, q});
  }
  for (const std::string& q : LookupShapedQueries(lubm)) {
    corpus.push_back({&lubm, q});
  }
  return corpus;
}

TEST(FrontEndTest, FusedEqualsLayeredOnPaperAndLookupQueries) {
  datagen::LubmOptions lopts;
  lopts.universities = 1;
  const rdf::Graph lubm = datagen::GenerateLubm(lopts);
  const rdf::Graph yago = datagen::GenerateYago();
  const auto corpus = FrontEndCorpus(lubm, yago);
  ASSERT_EQ(corpus.size(), 144u);

  uint64_t digest = 1469598103934665603ull;
  size_t cacheable = 0;
  sparql::BgpEncoder encoder;
  for (const auto& [graph, text] : corpus) {
    SCOPED_TRACE(text);
    const rdf::TermId type =
        graph->dict()
            .FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
            .value_or(rdf::kInvalidTermId);
    auto layered = sparql::ParseQuery(text);
    auto fused = sparql::ParseQuery(text, &encoder);
    ASSERT_TRUE(layered.ok()) << layered.status().ToString();
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_TRUE(*fused == *layered);
    const sparql::EncodedBgp fused_bgp = encoder.Finish(graph->dict());
    const sparql::EncodedBgp layered_bgp =
        sparql::EncodeBgp(*layered, graph->dict());
    ExpectSameBgp(fused_bgp, layered_bgp);
    const cache::CanonicalTemplate a =
        cache::CanonicalizeTemplate(*fused, fused_bgp, type);
    const cache::CanonicalTemplate b =
        cache::CanonicalizeTemplate(*layered, layered_bgp, type);
    EXPECT_EQ(a.cacheable, b.cacheable);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.hash, b.hash);
    cacheable += b.cacheable;
    digest = FoldTemplate(digest, b);
  }
  // Keys and hashes as the two-pass front end produced them.
  EXPECT_EQ(cacheable, 110u);
  EXPECT_EQ(digest, 0x1129ee55373cf181ull);
}

// --- Per-thread canonicalization memo ----------------------------------------
// A query shape canonicalized before on the same thread is copied from that
// thread's memo. The copy must equal, field by field, a fresh
// canonicalization on a new thread, whose memo is empty.

cache::CanonicalTemplate FreshTemplate(const sparql::ParsedQuery& query,
                                       const sparql::EncodedBgp& bgp,
                                       rdf::TermId rdf_type_id) {
  cache::CanonicalTemplate t;
  std::thread([&] {
    EXPECT_EQ(cache::MemoizedTemplates(), 0u);
    t = cache::CanonicalizeTemplate(query, bgp, rdf_type_id);
  }).join();
  return t;
}

void ExpectSameTemplate(const cache::CanonicalTemplate& a,
                        const cache::CanonicalTemplate& b) {
  EXPECT_EQ(a.cacheable, b.cacheable);
  EXPECT_EQ(a.bypass_reason, b.bypass_reason);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.canon_to_instance, b.canon_to_instance);
  EXPECT_EQ(a.instance_to_canon, b.instance_to_canon);
  EXPECT_EQ(a.var_canon_to_instance, b.var_canon_to_instance);
  EXPECT_EQ(a.var_instance_to_canon, b.var_instance_to_canon);
  EXPECT_EQ(a.num_params, b.num_params);
}

bool HasFilterConstant(const sparql::ParsedQuery& q) {
  for (const sparql::FilterComparison& f : q.filters) {
    if (!sparql::IsVar(f.lhs) || !sparql::IsVar(f.rhs)) return true;
  }
  return false;
}

TEST(TemplateMemoTest, HitsEqualFreshCanonicalization) {
  datagen::LubmOptions lopts;
  lopts.universities = 1;
  const rdf::Graph lubm = datagen::GenerateLubm(lopts);
  const rdf::Graph yago = datagen::GenerateYago();
  auto corpus = FrontEndCorpus(lubm, yago);
  // One template spelled four ways. Renamed variables share a surface
  // signature (variables are numbered by first occurrence); reordered
  // patterns do not. All four have one key.
  const std::string ub =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
  const char* kSpellings[] = {
      "SELECT ?x ?d WHERE { ?x ub:advisor ?p . ?p ub:worksFor ?d }",
      "SELECT ?s ?e WHERE { ?s ub:advisor ?t . ?t ub:worksFor ?e }",
      "SELECT ?x ?d WHERE { ?p ub:worksFor ?d . ?x ub:advisor ?p }",
      "SELECT ?a ?b WHERE { ?c ub:worksFor ?b . ?a ub:advisor ?c }",
  };
  for (const char* q : kSpellings) corpus.push_back({&lubm, ub + q});
  // One BGP under every form, projection, ORDER BY and variable FILTER:
  // each must miss the others' memo entries.
  const std::string bgp_text = "{ ?x ub:advisor ?p . ?p ub:worksFor ?d ";
  for (const char* head :
       {"SELECT ?x WHERE ", "SELECT ?d WHERE ", "SELECT ?x ?d WHERE ",
        "SELECT ?d ?x WHERE ", "SELECT DISTINCT ?x WHERE ", "SELECT * WHERE ",
        "SELECT (COUNT(*) AS ?c) WHERE ", "ASK "}) {
    for (const char* tail :
         {"}", "} ORDER BY ?x", "} ORDER BY DESC(?x)", "} ORDER BY ?d",
          "FILTER(?x != ?d) }", "FILTER(?d != ?x) }", "FILTER(?x = ?d) }",
          "FILTER(?x != ?p) }"}) {
      corpus.push_back({&lubm, ub + head + bgp_text + tail});
    }
  }

  const rdf::TermId lubm_type =
      *lubm.dict().FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  const rdf::TermId yago_type =
      *yago.dict().FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  size_t memoizable = 0;
  for (const auto& [graph, text] : corpus) {
    SCOPED_TRACE(text);
    auto q = sparql::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph->dict());
    // Each graph's own rdf:type id, the other graph's, and none: the same
    // BGP classifies its type objects differently under each.
    for (rdf::TermId type : {lubm_type, yago_type, rdf::kInvalidTermId}) {
      SCOPED_TRACE("rdf_type_id " + std::to_string(type));
      const size_t before = cache::MemoizedTemplates();
      const cache::CanonicalTemplate first =
          cache::CanonicalizeTemplate(*q, bgp, type);
      const size_t after = cache::MemoizedTemplates();
      const cache::CanonicalTemplate again =
          cache::CanonicalizeTemplate(*q, bgp, type);
      EXPECT_EQ(cache::MemoizedTemplates(), after);
      const cache::CanonicalTemplate fresh = FreshTemplate(*q, bgp, type);
      ExpectSameTemplate(first, fresh);
      ExpectSameTemplate(again, fresh);
      if (!fresh.cacheable || HasFilterConstant(*q)) {
        EXPECT_EQ(after, before) << "only memoizable shapes enter the memo";
      } else {
        EXPECT_GE(after, 1u);
        ++memoizable;
      }
    }
  }
  EXPECT_GT(memoizable, 300u);
  // The parser rejects a projected variable absent from the BGP, but the
  // key names one by its name: two such names are two templates.
  {
    auto q = sparql::ParseQuery(ub + "SELECT ?x ?d WHERE " + bgp_text + "}");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, lubm.dict());
    for (const char* name : {"gone", "other", "gone"}) {
      q->projection[1].name = name;
      const cache::CanonicalTemplate t =
          cache::CanonicalizeTemplate(*q, bgp, lubm_type);
      EXPECT_NE(t.key.find(std::string("u:") + name), std::string::npos);
      ExpectSameTemplate(t, FreshTemplate(*q, bgp, lubm_type));
    }
  }
  std::string first_key;
  for (const char* text : kSpellings) {
    auto q = sparql::ParseQuery(ub + text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const std::string key =
        cache::CanonicalizeTemplate(*q, sparql::EncodeBgp(*q, lubm.dict()),
                                    lubm_type)
            .key;
    if (first_key.empty()) first_key = key;
    EXPECT_EQ(key, first_key) << text;
  }
}

TEST(TemplateMemoTest, FullMemoIsClearedAndStaysExact) {
  auto q = sparql::ParseQuery(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Item . "
      "?x ex:link ?y . ?y a ex:Item }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(kData, &g).ok());
  g.Finalize();
  const sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, g.dict());
  // Every rdf_type_id is a signature of its own: more of them than the
  // memo holds.
  for (rdf::TermId type = 1; type <= 2500; ++type) {
    const cache::CanonicalTemplate t = cache::CanonicalizeTemplate(*q, bgp, type);
    ASSERT_LE(cache::MemoizedTemplates(), 1024u);
    if (type % 250 == 0) {
      SCOPED_TRACE("rdf_type_id " + std::to_string(type));
      ExpectSameTemplate(t, FreshTemplate(*q, bgp, type));
      ExpectSameTemplate(cache::CanonicalizeTemplate(*q, bgp, type), t);
    }
  }
}

TEST(TemplateMemoTest, LargeQueriesSkipTheMemo) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(kData, &g).ok());
  g.Finalize();
  auto path = [](int n) {
    std::string q = "PREFIX ex: <http://ex/> SELECT * WHERE { ";
    for (int i = 0; i < n; ++i) {
      q += "?v" + std::to_string(i) + " ex:link ?v" + std::to_string(i + 1) +
           " . ";
    }
    return q;
  };
  // Three patterns under 100 variable-only FILTERs: a long signature from
  // a small BGP.
  std::string filtered = path(3);
  for (int i = 0; i < 100; ++i) filtered += "FILTER(?v0 != ?v3) ";
  struct Case {
    std::string text;
    bool memoized;
  };
  // A SELECT * path fits the 1 KiB signature bound up to 66 patterns.
  const Case cases[] = {{path(64) + "}", true},
                        {path(66) + "}", true},
                        {path(67) + "}", false},
                        {path(70) + "}", false},
                        {filtered + "}", false}};
  // On a new thread, whose memo starts empty.
  std::thread([&] {
    for (const Case& c : cases) {
      SCOPED_TRACE(c.text.substr(0, 80));
      auto q = sparql::ParseQuery(c.text);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      const sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, g.dict());
      const size_t before = cache::MemoizedTemplates();
      const cache::CanonicalTemplate first =
          cache::CanonicalizeTemplate(*q, bgp, rdf::kInvalidTermId);
      EXPECT_TRUE(first.cacheable);
      EXPECT_EQ(cache::MemoizedTemplates(), before + (c.memoized ? 1 : 0));
      ExpectSameTemplate(
          cache::CanonicalizeTemplate(*q, bgp, rdf::kInvalidTermId), first);
      EXPECT_EQ(cache::MemoizedTemplates(), before + (c.memoized ? 1 : 0));
    }
  }).join();
}

TEST(FrontEndTest, RepeatedAnchorIsOneConstant) {
  datagen::LubmOptions lopts;
  lopts.universities = 1;
  const rdf::Graph lubm = datagen::GenerateLubm(lopts);
  const std::vector<std::string> queries = LookupShapedQueries(lubm);
  sparql::BgpEncoder encoder;
  // The first shape names its anchor in all three patterns, one variable
  // per pattern, and projects them in reverse order.
  auto q = sparql::ParseQuery(queries[0], &encoder);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const sparql::EncodedBgp bgp = encoder.Finish(lubm.dict());
  ASSERT_EQ(bgp.patterns.size(), 3u);
  for (const sparql::EncodedPattern& p : bgp.patterns) {
    EXPECT_TRUE(p.s.is_bound());
    EXPECT_EQ(p.s.id, bgp.patterns[0].s.id);
  }
  EXPECT_EQ(bgp.var_names, (std::vector<std::string>{"n", "e"}));
  EXPECT_EQ(q->projection[0].name, "e");
}

TEST(FrontEndTest, MalformedInputsKeepTheirErrors) {
  // Error texts as the two-pass front end reported them.
  const std::pair<const char*, const char*> kCases[] = {
    {"",
     "ParseError: line 1: expected SELECT or ASK"},
    {"SELECT",
     "ParseError: line 1: expected '*' or at least one ?variable"},
    {"SELECT ?x",
     "ParseError: line 1: expected '{'"},
    {"SELECT ?x WHERE",
     "ParseError: line 1: expected '{'"},
    {"SELECT ?x WHERE { ?x ?p ?o",
     "ParseError: line 1: expected '}'"},
    {"CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }",
     "ParseError: line 1: expected SELECT or ASK"},
    {"SELECT WHERE { ?s ?p ?o }",
     "ParseError: line 1: expected '*' or at least one ?variable"},
    {"SELECT ? WHERE { ?s ?p ?o }",
     "InvalidArgument: projected variable ?WHERE does not occur in the BGP"},
    {"SELECT ?x WHERE { }",
     "ParseError: line 1: empty basic graph pattern"},
    {"SELECT ?x WHERE { ?x ?p ?o } trailing",
     "ParseError: line 1: trailing content after query"},
    {"SELECT ?y WHERE { ?x ?p ?o }",
     "InvalidArgument: projected variable ?y does not occur in the BGP"},
    {"SELECT ?x WHERE { ?x ?p ?o FILTER(?z = 1) }",
     "InvalidArgument: FILTER variable ?z does not occur in the BGP"},
    {"SELECT ?x WHERE { ?x ?p ?o } ORDER BY ?z",
     "InvalidArgument: ORDER BY variable ?z does not occur in the BGP"},
    {"SELECT ?x WHERE { ?x ?p ?o } ORDER BY",
     "ParseError: line 1: ORDER BY expects a variable"},
    {"SELECT ?x WHERE { ?x ?p ?o } ORDER ?x",
     "ParseError: line 1: expected BY after ORDER"},
    {"SELECT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x",
     "ParseError: line 1: expected ')' in ORDER BY"},
    {"SELECT ?x WHERE { ?x ?p ?o } LIMIT -1",
     "ParseError: line 1: LIMIT expects a non-negative integer"},
    {"SELECT ?x WHERE { ?x ?p ?o } LIMIT abc",
     "ParseError: line 1: LIMIT expects a non-negative integer"},
    {"SELECT ?x WHERE { ?x ?p ?o } OFFSET",
     "ParseError: line 1: OFFSET expects a non-negative integer"},
    {"SELECT ?x WHERE { ?x foo:bar ?o }",
     "ParseError: line 1: undeclared prefix in 'foo:bar'"},
    {"PREFIX ex <http://ex/> SELECT ?x WHERE { ?x ?p ?o }",
     "ParseError: line 1: expected IRI in PREFIX"},
    {"PREFIX ex: http://ex/ SELECT ?x WHERE { ?x ?p ?o }",
     "ParseError: line 1: expected IRI in PREFIX"},
    {"PREFIX ex: <http://ex/ SELECT ?x WHERE { ?x ?p ?o }",
     "ParseError: line 1: unterminated IRI"},
    {"PREFIX SELECT ?x WHERE { ?x ?p ?o }",
     "ParseError: line 1: bad PREFIX"},
    {"SELECT ?x WHERE { ?x <http://ex/p ?o }",
     "ParseError: line 1: unterminated IRI"},
    {"SELECT ?x WHERE { ?x ?p \"abc }",
     "ParseError: line 1: unterminated literal"},
    {"SELECT ?x WHERE { \"lit\" ?p ?x }",
     "ParseError: line 1: subject must not be a literal"},
    {"SELECT ?x WHERE { ?x \"p\" ?o }",
     "ParseError: line 1: predicate must be an IRI or variable"},
    {"SELECT ?x WHERE { ?x ?p \"v\"^^\"dt\" }",
     "ParseError: line 1: datatype must be an IRI"},
    {"SELECT ?x WHERE { ?x ?p ?o OPTIONAL { ?x ?q ?r } }",
     "ParseError: line 1: expected '}'"},
    {"SELECT ?x WHERE { ?x ?p ?o . UNION }",
     "ParseError: line 1: UNION is not supported (BGP subset)"},
    {"SELECT ?x WHERE { ?x ?p ?o . BIND }",
     "ParseError: line 1: BIND is not supported (BGP subset)"},
    {"SELECT ?x WHERE { ?x ?p ?o FILTER ?x = 1 }",
     "ParseError: line 1: expected '(' after FILTER"},
    {"SELECT ?x WHERE { ?x ?p ?o FILTER(?x ~ 1) }",
     "ParseError: line 1: expected comparison operator in FILTER"},
    {"SELECT ?x WHERE { ?x ?p ?o FILTER(?x = 1 }",
     "ParseError: line 1: expected ')' closing FILTER"},
    {"SELECT (SUM(?x) AS ?s) WHERE { ?x ?p ?o }",
     "ParseError: line 1: only the COUNT(*) aggregate is supported"},
    {"SELECT (COUNT(?x) AS ?s) WHERE { ?x ?p ?o }",
     "ParseError: line 1: expected (*) after COUNT"},
    {"SELECT (COUNT(*) ?s) WHERE { ?x ?p ?o }",
     "ParseError: line 1: expected AS in COUNT"},
    {"SELECT (COUNT(*) AS s) WHERE { ?x ?p ?o }",
     "ParseError: line 1: expected alias variable"},
    {"SELECT (COUNT(*) AS ?) WHERE { ?x ?p ?o }",
     "ParseError: line 1: empty alias variable"},
    {"SELECT (COUNT(*) AS ?s WHERE { ?x ?p ?o }",
     "ParseError: line 1: expected ')' after alias"},
    {"ASK ?x { ?x ?p ?o }",
     "ParseError: line 1: expected '{'"},
    {"SELECT ?x WHERE {\n  ?x ?p ?o .\n  ?x ?q\n}",
     "ParseError: line 4: unexpected token near ''"},
    {"SELECT ?x WHERE { ?x ?p ?o . ?x ?q . }",
     "ParseError: line 1: unexpected token near ''"},
    {"SELECT ?x WHERE { ?x a ?o }",
     "OK"},
    {"SELECT ?x WHERE { a ?p ?o }",
     "ParseError: line 1: unexpected token near 'a'"}
  };
  sparql::BgpEncoder encoder;
  for (const auto& [text, expected] : kCases) {
    SCOPED_TRACE(text);
    auto layered = sparql::ParseQuery(text);
    auto fused = sparql::ParseQuery(text, &encoder);
    if (std::string_view(expected) == "OK") {
      EXPECT_TRUE(layered.ok());
      EXPECT_TRUE(fused.ok());
      continue;
    }
    ASSERT_FALSE(layered.ok());
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(layered.status().ToString(), expected);
    EXPECT_EQ(fused.status().ToString(), expected);
  }
}

}  // namespace
}  // namespace shapestats
