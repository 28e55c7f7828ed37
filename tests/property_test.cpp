// Property-based tests: randomized sweeps checking module invariants
// against independent oracles.
//  * Executor vs a brute-force enumeration oracle on random BGPs.
//  * Estimator sanity: non-negative, finite, join estimate bounded by the
//    Cartesian product.
//  * PlanVerifier: every plan the greedy planner emits (global and shape
//    statistics alike) passes structural verification; generated
//    statistics pass the StatsAuditor.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "analysis/plan_verify.h"
#include "analysis/shape_check.h"
#include "analysis/stats_audit.h"
#include "card/estimator.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "exec/executor.h"
#include "opt/join_order.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "shacl/generator.h"
#include "sparql/encoded_bgp.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

using rdf::TermId;
using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;

// Builds a small random graph over fixed pools of subjects/predicates/objects.
rdf::Graph RandomGraph(Rng& rng, int num_triples) {
  rdf::Graph g;
  std::vector<TermId> nodes, preds;
  for (int i = 0; i < 12; ++i) {
    nodes.push_back(g.dict().InternIri("http://t/n" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    preds.push_back(g.dict().InternIri("http://t/p" + std::to_string(i)));
  }
  for (int i = 0; i < num_triples; ++i) {
    g.Add(nodes[rng.Uniform(0, nodes.size() - 1)],
          preds[rng.Uniform(0, preds.size() - 1)],
          nodes[rng.Uniform(0, nodes.size() - 1)]);
  }
  g.Finalize();
  return g;
}

// Random BGP with `n` patterns over up to 4 variables; positions are
// variables with probability pvar, otherwise constants drawn from the
// graph's terms.
EncodedBgp RandomBgp(Rng& rng, const rdf::Graph& g, int n, double pvar) {
  EncodedBgp bgp;
  bgp.var_names = {"a", "b", "c", "d"};
  auto term = [&](bool predicate_position) {
    if (rng.UniformReal() < pvar) {
      return EncodedTerm::Var(static_cast<sparql::VarId>(rng.Uniform(0, 3)));
    }
    auto triples = g.triples();
    const rdf::Triple& t = triples[rng.Uniform(0, triples.size() - 1)];
    return EncodedTerm::Bound(predicate_position ? t.p
                                                 : (rng.Chance(0.5) ? t.s : t.o));
  };
  for (int i = 0; i < n; ++i) {
    EncodedPattern tp;
    tp.s = term(false);
    tp.p = term(true);
    tp.o = term(false);
    tp.input_index = static_cast<uint32_t>(i);
    bgp.patterns.push_back(tp);
  }
  return bgp;
}

// Brute-force oracle: enumerate every assignment of patterns to triples
// and count the consistent ones.
uint64_t BruteForceCount(const rdf::Graph& g, const EncodedBgp& bgp) {
  auto triples = g.triples();
  std::vector<TermId> bindings(bgp.NumVars(), rdf::kInvalidTermId);
  uint64_t count = 0;

  std::function<void(size_t)> rec = [&](size_t depth) {
    if (depth == bgp.patterns.size()) {
      ++count;
      return;
    }
    const EncodedPattern& tp = bgp.patterns[depth];
    for (const rdf::Triple& t : triples) {
      auto matches = [&](const EncodedTerm& term, TermId value) {
        if (term.is_bound()) return term.id == value;
        if (term.is_missing()) return false;
        TermId bound = bindings[term.id];
        return bound == rdf::kInvalidTermId || bound == value;
      };
      if (!matches(tp.s, t.s) || !matches(tp.p, t.p) || !matches(tp.o, t.o)) {
        continue;
      }
      // Repeated variables inside the pattern must bind equal values.
      auto check_repeat = [&](const EncodedTerm& x, TermId vx,
                              const EncodedTerm& y, TermId vy) {
        return !(x.is_var() && y.is_var() && x.id == y.id && vx != vy);
      };
      if (!check_repeat(tp.s, t.s, tp.p, t.p) ||
          !check_repeat(tp.s, t.s, tp.o, t.o) ||
          !check_repeat(tp.p, t.p, tp.o, t.o)) {
        continue;
      }
      TermId saved_s = tp.s.is_var() ? bindings[tp.s.id] : 0;
      TermId saved_p = tp.p.is_var() ? bindings[tp.p.id] : 0;
      TermId saved_o = tp.o.is_var() ? bindings[tp.o.id] : 0;
      if (tp.s.is_var()) bindings[tp.s.id] = t.s;
      if (tp.p.is_var()) bindings[tp.p.id] = t.p;
      if (tp.o.is_var()) bindings[tp.o.id] = t.o;
      rec(depth + 1);
      if (tp.s.is_var()) bindings[tp.s.id] = saved_s;
      if (tp.p.is_var()) bindings[tp.p.id] = saved_p;
      if (tp.o.is_var()) bindings[tp.o.id] = saved_o;
    }
  };
  rec(0);
  return count;
}

struct OracleCase {
  uint64_t seed;
  int patterns;
  double pvar;
};

class ExecutorOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ExecutorOracleTest, MatchesBruteForce) {
  const OracleCase& pc = GetParam();
  Rng rng(pc.seed);
  rdf::Graph g = RandomGraph(rng, 50);
  for (int trial = 0; trial < 8; ++trial) {
    EncodedBgp bgp = RandomBgp(rng, g, pc.patterns, pc.pvar);
    uint64_t expected = BruteForceCount(g, bgp);
    auto r = exec::ExecuteBgp(g, bgp);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->num_results, expected) << "seed " << pc.seed << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomBgps, ExecutorOracleTest,
    ::testing::Values(OracleCase{1, 1, 0.8}, OracleCase{2, 2, 0.8},
                      OracleCase{3, 2, 0.5}, OracleCase{4, 3, 0.7},
                      OracleCase{5, 3, 0.9}, OracleCase{6, 2, 0.3},
                      OracleCase{7, 3, 0.5}, OracleCase{8, 1, 0.2}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.patterns);
    });

class EstimatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EstimatorPropertyTest, EstimatesAreSaneOnRandomPatterns) {
  Rng rng(GetParam());
  rdf::Graph g = RandomGraph(rng, 120);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  card::CardinalityEstimator est(gs, nullptr, g.dict(),
                                 card::StatsMode::kGlobal);
  for (int trial = 0; trial < 50; ++trial) {
    EncodedBgp bgp = RandomBgp(rng, g, 2, rng.UniformReal());
    auto estimates = est.EstimateAll(bgp);
    for (const card::TpEstimate& e : estimates) {
      EXPECT_GE(e.card, 0.0);
      EXPECT_GE(e.dsc, 0.0);
      EXPECT_GE(e.doc, 0.0);
      EXPECT_TRUE(std::isfinite(e.card));
      // A single pattern can never exceed the number of triples.
      EXPECT_LE(e.card, static_cast<double>(g.NumTriples()) + 1e-9);
    }
    double join = card::JoinEstimateEq123(bgp.patterns[0], estimates[0],
                                          bgp.patterns[1], estimates[1]);
    EXPECT_GE(join, 0.0);
    EXPECT_TRUE(std::isfinite(join));
    // Equations 1-3 divide by max(..., 1): never above the cross product.
    EXPECT_LE(join, estimates[0].card * estimates[1].card + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// Like RandomGraph but every node is rdf:type-ed into one of three classes,
// so shape anchoring (and therefore the SS estimator's shape path) kicks in.
rdf::Graph RandomTypedGraph(Rng& rng, int num_triples) {
  rdf::Graph g;
  TermId type = g.dict().InternIri(std::string(rdf::vocab::kRdfType));
  std::vector<TermId> nodes, preds, classes;
  for (int i = 0; i < 12; ++i) {
    nodes.push_back(g.dict().InternIri("http://t/n" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    preds.push_back(g.dict().InternIri("http://t/p" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    classes.push_back(g.dict().InternIri("http://t/C" + std::to_string(i)));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    g.Add(nodes[i], type, classes[rng.Uniform(0, classes.size() - 1)]);
  }
  for (int i = 0; i < num_triples; ++i) {
    g.Add(nodes[rng.Uniform(0, nodes.size() - 1)],
          preds[rng.Uniform(0, preds.size() - 1)],
          nodes[rng.Uniform(0, nodes.size() - 1)]);
  }
  g.Finalize();
  return g;
}

class PlanVerifierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Every plan the greedy planner produces — over random BGPs, with both the
// global and the shape statistics provider — must pass PlanVerifier, and
// the statistics computed from a real graph must pass the StatsAuditor.
TEST_P(PlanVerifierPropertyTest, AllProducedPlansVerify) {
  Rng rng(GetParam());
  rdf::Graph g = RandomTypedGraph(rng, 80);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  auto shapes = shacl::GenerateShapes(g);
  ASSERT_TRUE(shapes.ok());
  ASSERT_TRUE(stats::AnnotateShapes(g, &*shapes).ok());

  auto audit = analysis::StatsAuditor().AuditAll(gs, *shapes, &g.dict());
  EXPECT_TRUE(audit.empty()) << analysis::ToText(audit);

  card::CardinalityEstimator global_est(gs, nullptr, g.dict(),
                                        card::StatsMode::kGlobal);
  card::CardinalityEstimator shape_est(gs, &*shapes, g.dict(),
                                       card::StatsMode::kShape);
  analysis::PlanVerifier verifier;
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.Uniform(1, 4));
    EncodedBgp bgp = RandomBgp(rng, g, n, rng.UniformReal());
    for (const card::CardinalityEstimator* est : {&global_est, &shape_est}) {
      opt::Plan plan = opt::PlanJoinOrder(bgp, *est);
      auto diags = verifier.Verify(plan, bgp);
      EXPECT_TRUE(diags.empty())
          << "seed " << GetParam() << " trial " << trial << " provider "
          << est->name() << "\n"
          << analysis::ToText(diags);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanVerifierPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

// --- ShapeChecker soundness: no non-satisfiable verdict ever contradicts
// --- real execution ------------------------------------------------------

// Like RandomTypedGraph, but the dictionary additionally knows a predicate
// and a class that occur in no triple — bait for the unknown-predicate and
// empty-class rules (which must stay sound, not just fire).
rdf::Graph RandomBaitedGraph(Rng& rng, TermId* unused_pred,
                             TermId* empty_class) {
  rdf::Graph g;
  TermId type = g.dict().InternIri(std::string(rdf::vocab::kRdfType));
  std::vector<TermId> nodes, preds, classes;
  for (int i = 0; i < 12; ++i) {
    nodes.push_back(g.dict().InternIri("http://t/n" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    preds.push_back(g.dict().InternIri("http://t/p" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    classes.push_back(g.dict().InternIri("http://t/C" + std::to_string(i)));
  }
  *unused_pred = g.dict().InternIri("http://t/unusedPred");
  *empty_class = g.dict().InternIri("http://t/EmptyClass");
  for (size_t i = 0; i < nodes.size(); ++i) {
    g.Add(nodes[i], type, classes[rng.Uniform(0, classes.size() - 1)]);
  }
  for (int i = 0; i < 60; ++i) {
    g.Add(nodes[rng.Uniform(0, nodes.size() - 1)],
          preds[rng.Uniform(0, preds.size() - 1)],
          nodes[rng.Uniform(0, nodes.size() - 1)]);
  }
  g.Finalize();
  return g;
}

class ShapeCheckerSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

// The checker's emptiness verdicts are proofs: whenever it says kEmpty or
// kEmptyByStats, the brute-force oracle must count zero solutions — over
// random BGPs salted with rdf:type patterns, dictionary-known-but-unused
// constants, duplicated patterns, and with and without shape statistics.
TEST_P(ShapeCheckerSoundnessTest, EmptyVerdictsNeverContradictExecution) {
  Rng rng(GetParam());
  TermId unused_pred = rdf::kInvalidTermId;
  TermId empty_class = rdf::kInvalidTermId;
  rdf::Graph g = RandomBaitedGraph(rng, &unused_pred, &empty_class);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  auto shapes = shacl::GenerateShapes(g);
  ASSERT_TRUE(shapes.ok());
  ASSERT_TRUE(stats::AnnotateShapes(g, &*shapes).ok());

  analysis::ShapeChecker with_shapes(gs, &*shapes, g.dict());
  analysis::ShapeChecker global_only(gs, nullptr, g.dict());
  sparql::ParsedQuery query;  // SELECT * over the BGP, no filters
  query.select_all = true;

  int empty_verdicts = 0;
  for (int trial = 0; trial < 80; ++trial) {
    int n = static_cast<int>(rng.Uniform(1, 3));
    EncodedBgp bgp = RandomBgp(rng, g, n, rng.UniformReal());
    for (EncodedPattern& tp : bgp.patterns) {
      double roll = rng.UniformReal();
      if (roll < 0.25) {
        // Turn into a type pattern over a real or empty class.
        tp.p = EncodedTerm::Bound(gs.rdf_type_id);
        if (rng.Chance(0.8)) {
          tp.o = EncodedTerm::Bound(
              rng.Chance(0.2) ? empty_class
                              : *g.dict().FindIri("http://t/C" +
                                                  std::to_string(rng.Uniform(
                                                      0, 2))));
        }
      } else if (roll < 0.35) {
        tp.p = EncodedTerm::Bound(unused_pred);
      }
    }
    if (bgp.patterns.size() > 1 && rng.Chance(0.2)) {
      bgp.patterns[1] = bgp.patterns[0];  // bait the redundancy rules
      bgp.patterns[1].input_index = 1;
    }
    uint64_t truth = BruteForceCount(g, bgp);
    for (const analysis::ShapeChecker* checker : {&with_shapes, &global_only}) {
      analysis::ShapeCheckResult r = checker->Check(query, bgp);
      if (r.provably_empty()) {
        ++empty_verdicts;
        EXPECT_EQ(truth, 0u)
            << "seed " << GetParam() << " trial " << trial << " rule "
            << r.rule << "\n"
            << analysis::ToText(r.diagnostics);
      }
    }
  }
  // The salting guarantees the sweep actually exercises emptiness proofs.
  EXPECT_GT(empty_verdicts, 0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeCheckerSoundnessTest,
                         ::testing::Values(7u, 77u, 777u, 7777u));

// End-to-end soundness over a real workload: the engine's short-circuit
// must be invisible in results. Every LUBM benchmark query — plus
// statically-empty bait — returns identical row counts with the static
// checker on and off, sequentially and under batched execution on
// different pool sizes; provably-empty queries return zero rows via the
// "static-empty" plan.
TEST(ShapeCheckerSoundnessTest, EngineShortCircuitPreservesResults) {
  datagen::LubmOptions lubm;
  lubm.universities = 1;
  auto checked = engine::QueryEngine::Open(datagen::GenerateLubm(lubm));
  ASSERT_TRUE(checked.ok());
  engine::EngineOptions unchecked_opts;
  unchecked_opts.static_check = false;
  auto unchecked =
      engine::QueryEngine::Open(datagen::GenerateLubm(lubm), unchecked_opts);
  ASSERT_TRUE(unchecked.ok());

  std::vector<std::string> corpus;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    corpus.push_back(q.text);
  }
  const size_t first_empty = corpus.size();
  corpus.push_back(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x WHERE { ?x ub:holdsPatentOn ?p }");
  corpus.push_back(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x WHERE { ?x a ub:FullProfessor . "
      "?x ub:name ?n . FILTER(?n != ?n) }");

  // Sequential: identical outcomes, short-circuit visible only in the plan.
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto on = checked->Execute(corpus[i]);
    auto off = unchecked->Execute(corpus[i]);
    ASSERT_TRUE(on.ok()) << corpus[i] << "\n" << on.status().ToString();
    ASSERT_TRUE(off.ok()) << corpus[i];
    EXPECT_EQ(on->table.rows.size(), off->table.rows.size()) << corpus[i];
    EXPECT_EQ(on->count.has_value(), off->count.has_value());
    if (on->count.has_value()) {
      EXPECT_EQ(*on->count, *off->count);
    }
    if (i >= first_empty) {
      EXPECT_EQ(on->table.rows.size(), 0u) << corpus[i];
      EXPECT_EQ(on->plan.provider, "static-empty") << corpus[i];
      EXPECT_NE(off->plan.provider, "static-empty") << corpus[i];
    }
  }

  // Batched, across pool sizes: slot-aligned agreement with sequential.
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (util::ThreadPool* pool : {&one, &four}) {
    engine::BatchOptions batch;
    batch.pool = pool;
    engine::BatchResult br = checked->ExecuteBatch(corpus, batch);
    ASSERT_EQ(br.results.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      ASSERT_TRUE(br.results[i].ok()) << corpus[i];
      auto off = unchecked->Execute(corpus[i]);
      ASSERT_TRUE(off.ok());
      EXPECT_EQ(br.results[i]->table.rows.size(), off->table.rows.size())
          << "pool " << pool->num_threads() << ": " << corpus[i];
      if (i >= first_empty) {
        EXPECT_EQ(br.results[i]->plan.provider, "static-empty");
      }
    }
  }
}

}  // namespace
}  // namespace shapestats
