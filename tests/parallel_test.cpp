// Determinism regression tests for the parallel preprocessing and batch
// execution paths: every pipeline stage must produce byte-identical output
// on a 1-thread pool (the exact sequential code path) and an N-thread pool.
// These run under the TSan CI job, so they double as data-race coverage for
// util::ThreadPool and everything driven through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/lubm.h"
#include "datagen/yago.h"
#include "engine/query_engine.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

datagen::YagoOptions SmallYago(bool finalize) {
  datagen::YagoOptions opts;
  opts.num_entities = 20000;
  opts.finalize = finalize;
  return opts;
}

TEST(ParallelFinalizeTest, IndexesIdenticalAcrossThreadCounts) {
  rdf::Graph seq = datagen::GenerateYago(SmallYago(/*finalize=*/false));
  rdf::Graph par = datagen::GenerateYago(SmallYago(/*finalize=*/false));

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  seq.Finalize(&one);
  par.Finalize(&four);

  ASSERT_EQ(seq.NumTriples(), par.NumTriples());
  auto s_spo = seq.triples();
  auto p_spo = par.triples();
  EXPECT_TRUE(std::equal(s_spo.begin(), s_spo.end(), p_spo.begin()));
  auto s_osp = seq.triples_by_object();
  auto p_osp = par.triples_by_object();
  EXPECT_TRUE(std::equal(s_osp.begin(), s_osp.end(), p_osp.begin()));
  EXPECT_EQ(seq.Predicates(), par.Predicates());
  // Per-predicate index spans (PSO / POS) must agree too.
  for (rdf::TermId p : seq.Predicates()) {
    auto a = seq.PredicateBySubject(p);
    auto b = par.PredicateBySubject(p);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    auto c = seq.PredicateByObject(p);
    auto d = par.PredicateByObject(p);
    ASSERT_EQ(c.size(), d.size());
    EXPECT_TRUE(std::equal(c.begin(), c.end(), d.begin()));
  }
  // Head arrays: the run of every id in every leading position has the
  // same bounds, which pins each head entry (runs are laid out in id order).
  // Ids past the dictionary probe the end of each head.
  const rdf::TermId past = static_cast<rdf::TermId>(seq.dict().size()) + 2;
  for (rdf::TermId id = 0; id <= past; ++id) {
    const rdf::OptId none;
    for (auto [s, p, o] : {std::tuple(rdf::OptId(id), none, none),
                           std::tuple(none, rdf::OptId(id), none),
                           std::tuple(none, none, rdf::OptId(id))}) {
      auto a = seq.Match(s, p, o);
      auto b = par.Match(s, p, o);
      ASSERT_EQ(a.size(), b.size()) << "id " << id;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "id " << id;
    }
  }
  EXPECT_EQ(seq.CountDistinctSubjects(), par.CountDistinctSubjects());
  EXPECT_EQ(seq.CountDistinctObjects(), par.CountDistinctObjects());
  EXPECT_EQ(seq.IndexBytes(), par.IndexBytes());
}

TEST(ParallelStatsTest, GlobalStatsIdenticalAcrossThreadCounts) {
  rdf::Graph g = datagen::GenerateYago(SmallYago(/*finalize=*/true));

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  stats::GlobalStats seq = stats::GlobalStats::Compute(g, &one);
  stats::GlobalStats par = stats::GlobalStats::Compute(g, &four);

  // The Turtle serialization covers every field (totals, per-predicate
  // count/dsc/doc, per-class counts) in a fixed order.
  EXPECT_EQ(stats::WriteVoidTurtle(seq, g.dict()),
            stats::WriteVoidTurtle(par, g.dict()));
}

TEST(ParallelStatsTest, AnnotateShapesIdenticalAcrossThreadCounts) {
  rdf::Graph g = datagen::GenerateYago(SmallYago(/*finalize=*/true));
  auto seq_shapes = shacl::GenerateShapes(g);
  auto par_shapes = shacl::GenerateShapes(g);
  ASSERT_TRUE(seq_shapes.ok());
  ASSERT_TRUE(par_shapes.ok());

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  ASSERT_TRUE(stats::AnnotateShapes(g, &*seq_shapes, &one).ok());
  ASSERT_TRUE(stats::AnnotateShapes(g, &*par_shapes, &four).ok());

  EXPECT_EQ(shacl::WriteShapesTurtle(*seq_shapes),
            shacl::WriteShapesTurtle(*par_shapes));
}

// Shared engine for the batch tests: building LUBM + preprocessing once
// keeps the suite fast.
const engine::QueryEngine& LubmEngine() {
  static engine::QueryEngine* eng = [] {
    datagen::LubmOptions opts;
    opts.universities = 5;
    auto r = engine::QueryEngine::Open(datagen::GenerateLubm(opts));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return new engine::QueryEngine(std::move(*r));
  }();
  return *eng;
}

TEST(ExecuteBatchTest, MatchesSequentialExecution) {
  const engine::QueryEngine& eng = LubmEngine();
  std::vector<std::string> queries;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    queries.push_back(q.text);
  }

  util::ThreadPool four(4);
  engine::BatchOptions batch_opts;
  batch_opts.pool = &four;
  engine::BatchResult batch = eng.ExecuteBatch(queries, batch_opts);
  ASSERT_EQ(batch.results.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto expected = eng.Execute(queries[i]);
    const auto& got = batch.results[i];
    ASSERT_EQ(expected.ok(), got.ok());
    if (!expected.ok()) continue;
    EXPECT_EQ(expected->ask, got->ask);
    EXPECT_EQ(expected->count, got->count);
    EXPECT_EQ(expected->table.var_names, got->table.var_names);
    EXPECT_EQ(expected->table.rows, got->table.rows);
  }
}

TEST(ExecuteBatchTest, SequentialPoolGivesSameResults) {
  const engine::QueryEngine& eng = LubmEngine();
  std::vector<std::string> queries;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    queries.push_back(q.text);
  }

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  engine::BatchOptions seq_opts;
  seq_opts.pool = &one;
  engine::BatchOptions par_opts;
  par_opts.pool = &four;
  engine::BatchResult seq = eng.ExecuteBatch(queries, seq_opts);
  engine::BatchResult par = eng.ExecuteBatch(queries, par_opts);

  ASSERT_EQ(seq.results.size(), par.results.size());
  for (size_t i = 0; i < seq.results.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_EQ(seq.results[i].ok(), par.results[i].ok());
    if (!seq.results[i].ok()) continue;
    EXPECT_EQ(seq.results[i]->table.rows, par.results[i]->table.rows);
  }
}

TEST(ExecuteBatchTest, FailuresStayInTheirSlot) {
  const engine::QueryEngine& eng = LubmEngine();
  std::vector<std::string> queries = {
      "SELECT ?s WHERE { ?s a <http://swat.cse.lehigh.edu/onto/"
      "univ-bench.owl#FullProfessor> }",
      "THIS IS NOT SPARQL",
      "SELECT ?s WHERE { ?s a <http://swat.cse.lehigh.edu/onto/"
      "univ-bench.owl#Course> }",
  };

  util::ThreadPool four(4);
  engine::BatchOptions opts;
  opts.pool = &four;
  engine::BatchResult batch = eng.ExecuteBatch(queries, opts);
  ASSERT_EQ(batch.results.size(), 3u);
  EXPECT_TRUE(batch.results[0].ok());
  EXPECT_FALSE(batch.results[1].ok());
  EXPECT_TRUE(batch.results[2].ok());
}

TEST(ExecuteBatchTest, CollectsIndexAlignedTraces) {
  const engine::QueryEngine& eng = LubmEngine();
  std::vector<std::string> queries = {
      "SELECT ?s WHERE { ?s a <http://swat.cse.lehigh.edu/onto/"
      "univ-bench.owl#Course> }",
      "SELECT ?s ?d WHERE { ?s <http://swat.cse.lehigh.edu/onto/"
      "univ-bench.owl#worksFor> ?d }",
  };

  util::ThreadPool four(4);
  engine::BatchOptions opts;
  opts.pool = &four;
  opts.collect_traces = true;
  engine::BatchResult batch = eng.ExecuteBatch(queries, opts);
  ASSERT_EQ(batch.traces.size(), 2u);
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_TRUE(batch.results[0].ok());
  EXPECT_TRUE(batch.results[1].ok());
}

TEST(ExecuteBatchTest, TimeoutsLandInTheRightSlotWithTraces) {
  // 3000 subjects with one ex:p triple each; objects never appear as
  // subjects. The two-hop query probes thousands of times (crossing the
  // executor's timeout-check interval) while the point lookups finish well
  // under it, so with a tiny per-query timeout only the heavy slot times out.
  rdf::Graph graph;
  for (int i = 0; i < 3000; ++i) {
    graph.Add(rdf::Term::Iri("http://ex/s" + std::to_string(i)),
              rdf::Term::Iri("http://ex/p"),
              rdf::Term::Iri("http://ex/o" + std::to_string(i)));
  }
  graph.Finalize();
  engine::EngineOptions eng_opts;
  eng_opts.optimizer = engine::EngineOptions::Optimizer::kGlobalStats;
  eng_opts.exec.timeout_ms = 1e-6;
  auto eng = engine::QueryEngine::Open(std::move(graph), eng_opts);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();

  std::vector<std::string> queries = {
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:p <http://ex/o5> }",
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:p ?y . ?y ex:p ?z }",
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:p <http://ex/o7> }",
  };
  util::ThreadPool four(4);
  engine::BatchOptions opts;
  opts.pool = &four;
  opts.collect_traces = true;
  engine::BatchResult batch = eng->ExecuteBatch(queries, opts);

  ASSERT_EQ(batch.results.size(), 3u);
  ASSERT_EQ(batch.traces.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    ASSERT_TRUE(batch.results[i].ok());
    bool heavy = (i == 1);
    EXPECT_EQ(batch.results[i]->table.timed_out, heavy);
    EXPECT_EQ(batch.traces[i].timed_out, heavy);
    // Traces are index-aligned with results: each trace describes its slot.
    EXPECT_EQ(batch.traces[i].num_results,
              batch.results[i]->table.rows.size());
    EXPECT_GT(batch.traces[i].exec.total_probes, 0u);
  }
  EXPECT_EQ(batch.results[0]->table.rows.size(), 1u);
  EXPECT_EQ(batch.results[1]->table.rows.size(), 0u);
  EXPECT_EQ(batch.results[2]->table.rows.size(), 1u);

  // A timed-out query is inexact, so the ledger must only have learned from
  // the two point lookups.
  EXPECT_EQ(eng->accuracy_ledger().num_queries(), 2u);
}

}  // namespace
}  // namespace shapestats
