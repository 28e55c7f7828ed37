// Tests for src/obs (metrics registry, query tracing) and the engine's
// EXPLAIN ANALYZE surface: counter/histogram semantics, JSON round-trips,
// golden plan rendering, q-error ground truth against the executor's
// step_cards, and the probe-based timeout granularity fix.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <thread>

#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "exec/executor.h"
#include "exec/work_meter.h"
#include "obs/accuracy_ledger.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "phys/phys_executor.h"
#include "phys/planner.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

// --- minimal JSON field extraction for round-trip checks -------------------

// Value of the first `"key":<number-or-token>` after `anchor` (or from the
// start). Good enough to round-trip our own flat export in tests.
std::string JsonField(const std::string& json, const std::string& key,
                      const std::string& anchor = "") {
  size_t from = 0;
  if (!anchor.empty()) {
    from = json.find(anchor);
    if (from == std::string::npos) return "";
  }
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(begin, end - begin);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulateAndSnapshotSorted) {
  obs::MetricsRegistry reg;
  reg.GetCounter("b.second")->Add(2);
  reg.GetCounter("a.first")->Add();
  reg.GetCounter("b.second")->Add(3);
  // Same name returns the same instrument.
  EXPECT_EQ(reg.GetCounter("b.second")->value(), 5u);

  obs::MetricsSnapshot snap = reg.Snap();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "b.second");
  EXPECT_EQ(snap.counters[1].value, 5u);
}

TEST(MetricsRegistry, HistogramBucketsMinMaxMean) {
  obs::Histogram h;
  h.Observe(0.5);
  h.Observe(3);
  h.Observe(1000);
  obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 1000);
  EXPECT_NEAR(s.Mean(), (0.5 + 3 + 1000) / 3, 1e-9);
  // 0.5 -> bucket 0; 3 -> [2,4) = bucket 2; 1000 -> [512,1024) = bucket 10.
  EXPECT_EQ(s.buckets[obs::Histogram::BucketIndex(0.5)], 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(0.5), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1000), 10u);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketLow(10), 512);
}

TEST(MetricsRegistry, CountersAreThreadSafe) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("contended");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 10000; ++i) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), 40000u);
}

TEST(MetricsRegistry, ToJsonRoundTripsValues) {
  obs::MetricsRegistry reg;
  reg.GetCounter("queries")->Add(42);
  reg.GetHistogram("latency_ms")->Observe(4);
  reg.GetHistogram("latency_ms")->Observe(12);
  std::string json = reg.ToJson();

  EXPECT_EQ(JsonField(json, "value", "\"queries\""), "42");
  EXPECT_EQ(JsonField(json, "count", "\"latency_ms\""), "2");
  EXPECT_EQ(std::stod(JsonField(json, "sum", "\"latency_ms\"")), 16.0);
  EXPECT_EQ(std::stod(JsonField(json, "min", "\"latency_ms\"")), 4.0);
  EXPECT_EQ(std::stod(JsonField(json, "max", "\"latency_ms\"")), 12.0);
  // 4 lands in [4,8) (lo 4), 12 in [8,16) (lo 8).
  EXPECT_NE(json.find("{\"lo\":4,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"lo\":8,\"count\":1}"), std::string::npos);

  reg.ResetAll();
  std::string after = reg.ToJson();
  EXPECT_EQ(JsonField(after, "value", "\"queries\""), "0");
  EXPECT_EQ(JsonField(after, "count", "\"latency_ms\""), "0");
}

TEST(MetricsRegistry, ToTextListsInstruments) {
  obs::MetricsRegistry reg;
  reg.GetCounter("exec.probes")->Add(7);
  reg.GetHistogram("ms")->Observe(1);
  std::string text = reg.ToText();
  EXPECT_NE(text.find("exec.probes"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

TEST(MetricsRegistry, GaugeSetAddSubAndExport) {
  obs::MetricsRegistry reg;
  obs::Gauge* depth = reg.GetGauge("queue.depth");
  EXPECT_EQ(depth, reg.GetGauge("queue.depth"));  // stable identity
  depth->Set(5);
  depth->Add(3);
  depth->Sub(2);
  EXPECT_EQ(depth->value(), 6);
  depth->Sub(10);
  EXPECT_EQ(depth->value(), -4);  // gauges may go negative, unlike counters

  obs::MetricsSnapshot snap = reg.Snap();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "queue.depth");
  EXPECT_EQ(snap.gauges[0].value, -4);
  EXPECT_NE(reg.ToJson().find("\"gauges\""), std::string::npos);

  reg.ResetAll();
  EXPECT_EQ(depth->value(), 0);
}

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("server.latency_ms./sparql"),
            "server_latency_ms__sparql");
  EXPECT_EQ(obs::PrometheusName("already_ok:name"), "already_ok:name");
  EXPECT_EQ(obs::PrometheusName("2xx.rate"), "_2xx_rate");  // no leading digit
  EXPECT_EQ(obs::PrometheusName(""), "_");
}

TEST(Prometheus, CounterAndGaugeExposition) {
  obs::MetricsRegistry reg;
  reg.GetCounter("server.http.requests")->Add(12);
  reg.GetGauge("server.queue_depth")->Set(3);
  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE server_http_requests counter\n"
                      "server_http_requests 12\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE server_queue_depth gauge\n"
                      "server_queue_depth 3\n"),
            std::string::npos);
}

TEST(Prometheus, HistogramBucketsAreCumulativeWithSumAndCount) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("latency.ms");
  // Buckets: 0.5 -> [0,1), 3 -> [2,4), 3 again, 20 -> [16,32).
  h->Observe(0.5);
  h->Observe(3);
  h->Observe(3);
  h->Observe(20);
  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE latency_ms histogram"), std::string::npos);
  // Cumulative counts at each bucket's exclusive upper edge.
  EXPECT_NE(text.find("latency_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"32\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_sum 26.5\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 4\n"), std::string::npos);
  // Cumulative series must be monotone: every le count <= the +Inf count.
  size_t pos = 0;
  uint64_t prev = 0;
  while ((pos = text.find("latency_ms_bucket{", pos)) != std::string::npos) {
    size_t sp = text.find("} ", pos);
    uint64_t v = std::stoull(text.substr(sp + 2));
    EXPECT_GE(v, prev);
    prev = v;
    pos = sp;
  }
}

TEST(Prometheus, EmptyHistogramStillEmitsInfSumCount) {
  obs::MetricsRegistry reg;
  reg.GetHistogram("unused.ms");
  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("unused_ms_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("unused_ms_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("unused_ms_count 0\n"), std::string::npos);
}

TEST(QErrorTest, MatchesPaperDefinition) {
  EXPECT_DOUBLE_EQ(obs::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(obs::QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(obs::QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(obs::QError(0, 0), 1.0);  // both clamped to 1
  EXPECT_TRUE(std::isnan(obs::QError(std::nan(""), 5)));
}

// --- tiny hand-built graph fixture ----------------------------------------

constexpr const char* kTinyData = R"(
@prefix ex: <http://ex/> .
ex:s1 a ex:Student ; ex:takes ex:c1, ex:c2 ; ex:advisor ex:p1 .
ex:s2 a ex:Student ; ex:takes ex:c1 ; ex:advisor ex:p1 .
ex:s3 a ex:Student ; ex:takes ex:c2 ; ex:advisor ex:p2 .
ex:p1 a ex:Prof ; ex:teaches ex:c1 .
ex:p2 a ex:Prof ; ex:teaches ex:c2 .
)";

constexpr const char* kTinyQuery =
    "PREFIX ex: <http://ex/>\n"
    "SELECT * WHERE { ?x a ex:Student . ?x ex:advisor ?p . ?p ex:teaches ?c }";

engine::QueryEngine OpenTiny(
    engine::EngineOptions::Optimizer opt =
        engine::EngineOptions::Optimizer::kShapeStats) {
  rdf::Graph graph;
  EXPECT_TRUE(rdf::ParseTurtle(kTinyData, &graph).ok());
  graph.Finalize();
  engine::EngineOptions options;
  options.optimizer = opt;
  auto eng = engine::QueryEngine::Open(std::move(graph), options);
  EXPECT_TRUE(eng.ok()) << eng.status().ToString();
  return std::move(eng).value();
}

// --- Explain golden rendering ---------------------------------------------

TEST(Explain, GoldenPlanRendering) {
  engine::QueryEngine eng =
      OpenTiny(engine::EngineOptions::Optimizer::kGlobalStats);
  auto plan = eng.Explain(kTinyQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Deterministic golden string: GS orders the teaches scan (2 triples)
  // first, then joins advisor, then the Student type pattern.
  EXPECT_EQ(*plan,
            "plan (GS optimizer, query shape: snowflake)\n"
            "join mode: auto -> scan, inlj, inlj\n"
            "static check: satisfiable\n"
            "  1. ?p <http://ex/teaches> ?c   [tp card ~2, step est ~2]\n"
            "       op: scan; index scan of the first pattern\n"
            "  2. ?x <http://ex/advisor> ?p   [tp card ~3, step est ~3]\n"
            "       op: inlj  [build ~2, probe ~3]; "
            "tiny left side (~2 rows <= 64); inlj\n"
            "  3. ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://ex/Student>   [tp card ~3, step est ~3]\n"
            "       op: inlj  [build ~3, probe ~3]; "
            "tiny left side (~3 rows <= 64); inlj\n"
            "estimated cost: 8\n");
}

TEST(Explain, MergeStepReportsLeftInputAsBuild) {
  // EXPLAIN, the trace and the flight bundle report a join step's left
  // input estimate as "build" and its pattern estimate as "probe".
  datagen::LubmOptions lubm;
  lubm.universities = 1;
  engine::EngineOptions options;
  options.join_mode = phys::JoinMode::kMerge;
  auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(lubm), options);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  constexpr char kQuery[] =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT * WHERE { ?x ub:takesCourse ?c . ?y ub:teacherOf ?c . "
      "?x ub:name ?n }";
  auto run = eng->Execute(kQuery);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  size_t k = 0;
  while (k < run->phys.steps.size() &&
         run->phys.steps[k].op != phys::OpKind::kMerge) {
    ++k;
  }
  ASSERT_LT(k, run->phys.steps.size()) << run->phys.Summary();
  const phys::PhysicalStep& st = run->phys.steps[k];
  // Distinct sides, so a swapped pair would show.
  ASSERT_NE(static_cast<uint64_t>(st.est_left),
            static_cast<uint64_t>(st.est_right));

  auto text = eng->Explain(kQuery);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string line =
      std::string("       op: merge") +
      (st.left_presorted ? "" : "(sort-left)") + "  [build ~" +
      WithCommas(static_cast<uint64_t>(st.est_left)) + ", probe ~" +
      WithCommas(static_cast<uint64_t>(st.est_right)) + "]; " +
      st.rationale + "\n";
  EXPECT_NE(text->find(line), std::string::npos) << *text;

  auto analyzed = eng->ExplainAnalyze(kQuery);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_LT(k, analyzed->trace.steps.size());
  EXPECT_EQ(analyzed->trace.steps[k].join_type, "merge");
  EXPECT_EQ(analyzed->trace.steps[k].est_build, st.est_left);
  EXPECT_EQ(analyzed->trace.steps[k].est_probe, st.est_right);
  char fields[96];
  std::snprintf(fields, sizeof(fields),
                "\"est_build\":%.6g,\"est_probe\":%.6g", st.est_left,
                st.est_right);
  EXPECT_NE(analyzed->json.find(fields), std::string::npos)
      << analyzed->json;

  const std::string bundle = engine::BuildFlightBundle(
      "slow", kQuery, obs::Outcome::kOk, run->plan, run->phys, run->total_ms,
      run->table.rows.size(), nullptr, nullptr, "", nullptr, {});
  const std::string step = "{\"op\":\"merge\"," + std::string(fields) +
                           ",\"rationale\":\"" + st.rationale + "\"}";
  EXPECT_NE(bundle.find(step), std::string::npos) << bundle;
}

// --- ExplainAnalyze --------------------------------------------------------

TEST(ExplainAnalyze, StepGroundTruthMatchesExecutor) {
  engine::QueryEngine eng = OpenTiny();
  auto analyzed = eng.ExplainAnalyze(kTinyQuery);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const obs::QueryTrace& trace = analyzed->trace;

  ASSERT_EQ(trace.steps.size(), 3u);
  EXPECT_EQ(trace.optimizer, "SS");
  EXPECT_EQ(trace.query_shape, "snowflake");

  // Independently execute the same plan to obtain the executor's
  // step_cards ground truth.
  auto query = sparql::ParseQuery(kTinyQuery);
  ASSERT_TRUE(query.ok());
  auto bgp = sparql::EncodeBgp(*query, eng.graph().dict());
  std::vector<uint32_t> order;
  for (const obs::StepTrace& s : trace.steps) order.push_back(s.pattern);
  auto truth = exec::ExecuteBgp(eng.graph(), bgp, order);
  ASSERT_TRUE(truth.ok());

  uint64_t total_true = 0;
  for (size_t k = 0; k < trace.steps.size(); ++k) {
    const obs::StepTrace& s = trace.steps[k];
    EXPECT_EQ(s.step, k + 1);
    EXPECT_EQ(s.true_card, truth->step_cards[k]) << "step " << k;
    EXPECT_DOUBLE_EQ(
        s.q_error, obs::QError(s.est_card, static_cast<double>(s.true_card)));
    EXPECT_GE(s.q_error, 1.0);
    EXPECT_FALSE(s.pattern_text.empty());
    EXPECT_GT(s.index_probes, 0u);
    total_true += s.true_card;
  }
  EXPECT_EQ(trace.true_total_cost, total_true);
  EXPECT_EQ(trace.true_total_cost, truth->TrueCost());
  EXPECT_EQ(trace.num_results, truth->num_results);
  EXPECT_EQ(trace.num_results, 3u);  // s1/p1, s2/p1, s3/p2

  // The type pattern must be answered by shape statistics in SS mode.
  bool saw_shape = false;
  for (const obs::StepTrace& s : trace.steps) {
    if (s.source == "shape") saw_shape = true;
  }
  EXPECT_TRUE(saw_shape);
}

TEST(ExplainAnalyze, PhaseSpansPopulatedAndNonNegative) {
  engine::QueryEngine eng = OpenTiny();
  auto analyzed = eng.ExplainAnalyze(kTinyQuery);
  ASSERT_TRUE(analyzed.ok());
  const obs::QueryTrace& trace = analyzed->trace;
  for (const char* name :
       {"parse", "encode", "static-check", "plan", "estimate", "execute"}) {
    double ms = trace.PhaseMs(name);
    EXPECT_GE(ms, 0.0) << "phase " << name << " missing or negative";
  }
  EXPECT_EQ(trace.phases.size(), 6u);
  EXPECT_GE(trace.total_ms, 0.0);
}

TEST(ExplainAnalyze, RendersTableAndJson) {
  engine::QueryEngine eng = OpenTiny();
  auto analyzed = eng.ExplainAnalyze(kTinyQuery);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->text.find("q-error"), std::string::npos);
  EXPECT_NE(analyzed->text.find("true card"), std::string::npos);
  EXPECT_NE(analyzed->text.find("phases:"), std::string::npos);

  const std::string& json = analyzed->json;
  EXPECT_EQ(json, analyzed->trace.ToJson());
  EXPECT_EQ(JsonField(json, "num_results", "\"totals\""), "3");
  EXPECT_EQ(std::stoull(JsonField(json, "true_cost", "\"totals\"")),
            analyzed->trace.true_total_cost);
  EXPECT_EQ(JsonField(json, "timed_out", "\"totals\""), "false");
  EXPECT_NE(json.find("\"optimizer\":\"SS\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\":["), std::string::npos);
  EXPECT_NE(json.find("\"steps\":["), std::string::npos);
}

TEST(ExplainAnalyze, LubmExampleQueryReportsGroundTruth) {
  datagen::LubmOptions opts;
  opts.universities = 1;
  auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(opts));
  ASSERT_TRUE(eng.ok());
  const std::string& text = workload::LubmExampleQuery();
  auto analyzed = eng->ExplainAnalyze(text);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const obs::QueryTrace& trace = analyzed->trace;
  ASSERT_FALSE(trace.steps.empty());

  // Replay the traced order on the raw executor: true cards must agree.
  auto query = sparql::ParseQuery(text);
  ASSERT_TRUE(query.ok());
  auto bgp = sparql::EncodeBgp(*query, eng->graph().dict());
  std::vector<uint32_t> order;
  for (const obs::StepTrace& s : trace.steps) order.push_back(s.pattern);
  auto truth = exec::ExecuteBgp(eng->graph(), bgp, order);
  ASSERT_TRUE(truth.ok());
  for (size_t k = 0; k < trace.steps.size(); ++k) {
    EXPECT_EQ(trace.steps[k].true_card, truth->step_cards[k]) << "step " << k;
    EXPECT_DOUBLE_EQ(trace.steps[k].q_error,
                     obs::QError(trace.steps[k].est_card,
                                 static_cast<double>(truth->step_cards[k])));
  }
  EXPECT_EQ(trace.num_results, truth->num_results);
  EXPECT_GT(trace.exec.total_probes, 0u);
  EXPECT_GT(trace.exec.total_rows_scanned, 0u);
}

// --- executor instrumentation ---------------------------------------------

TEST(ExecTrace, PerStepProbesAndScansSumToTotals) {
  rdf::Graph graph;
  ASSERT_TRUE(rdf::ParseTurtle(kTinyData, &graph).ok());
  graph.Finalize();
  auto query = sparql::ParseQuery(kTinyQuery);
  ASSERT_TRUE(query.ok());
  auto bgp = sparql::EncodeBgp(*query, graph.dict());

  obs::ExecTrace trace;
  exec::ExecOptions options;
  options.trace = &trace;
  auto r = exec::ExecuteBgp(graph, bgp, options);
  ASSERT_TRUE(r.ok());

  ASSERT_EQ(trace.step_probes.size(), 3u);
  ASSERT_EQ(trace.step_rows_scanned.size(), 3u);
  EXPECT_EQ(trace.step_probes[0], 1u);  // one opening scan
  uint64_t probes = 0, scanned = 0;
  for (size_t k = 0; k < 3; ++k) {
    probes += trace.step_probes[k];
    scanned += trace.step_rows_scanned[k];
  }
  EXPECT_EQ(probes, trace.total_probes);
  EXPECT_EQ(scanned, trace.total_rows_scanned);
  EXPECT_GT(trace.total_rows_scanned, 0u);
  // Scans at least cover the produced intermediate rows.
  EXPECT_GE(trace.total_rows_scanned, r->TrueCost());
}

// 3000 subjects each with one ex:p triple; objects never appear as
// subjects, so <?x ex:p ?y . ?y ex:p ?z> scans/probes thousands of times
// while producing < 4096 depth-0 rows and zero results.
rdf::Graph ProbeHeavyGraph() {
  rdf::Graph graph;
  for (int i = 0; i < 3000; ++i) {
    graph.Add(rdf::Term::Iri("http://ex/s" + std::to_string(i)),
              rdf::Term::Iri("http://ex/p"),
              rdf::Term::Iri("http://ex/o" + std::to_string(i)));
  }
  graph.Finalize();
  return graph;
}

constexpr const char* kProbeHeavyQuery =
    "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:p ?y . ?y ex:p ?z }";

// The executor entry points that take ExecOptions limits.
enum class Entry { kBgp, kSelect, kSelectPhysicalMerge };
constexpr Entry kEntries[] = {Entry::kBgp, Entry::kSelect,
                              Entry::kSelectPhysicalMerge};

const char* EntryName(Entry e) {
  switch (e) {
    case Entry::kBgp:
      return "ExecuteBgp";
    case Entry::kSelect:
      return "ExecuteSelect";
    case Entry::kSelectPhysicalMerge:
      return "ExecuteSelectPhysical(merge)";
  }
  return "?";
}

struct EntryRun {
  bool timed_out = false;
  bool cancelled = false;
  uint64_t results = 0;
};

// Runs `query` in textual order through entry point `e`; the physical run
// forces every join step to merge.
EntryRun RunEntry(Entry e, const rdf::Graph& graph,
                  const sparql::ParsedQuery& query,
                  const exec::ExecOptions& options) {
  sparql::EncodedBgp bgp = sparql::EncodeBgp(query, graph.dict());
  std::vector<uint32_t> order(bgp.patterns.size());
  std::iota(order.begin(), order.end(), 0);
  EntryRun run;
  if (e == Entry::kBgp) {
    auto r = exec::ExecuteBgp(graph, bgp, order, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) run = {r->timed_out, r->cancelled, r->num_results};
    return run;
  }
  opt::Plan plan;
  plan.order = order;
  phys::PlannerOptions merge;
  merge.mode = phys::JoinMode::kMerge;
  Result<exec::ResultTable> r =
      e == Entry::kSelect
          ? exec::ExecuteSelect(graph, query, bgp, order, options)
          : phys::ExecuteSelectPhysical(
                graph, query, bgp, phys::PlanPhysical(bgp, plan, graph, merge),
                options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) run = {r->timed_out, r->cancelled, r->rows.size()};
  return run;
}

TEST(ExecTimeout, FiresOnProbeWorkWithoutProducedRows) {
  // The old rows-produced-only check (every 4096 rows) never fired here.
  rdf::Graph graph = ProbeHeavyGraph();
  auto query = sparql::ParseQuery(kProbeHeavyQuery);
  ASSERT_TRUE(query.ok());

  exec::ExecOptions options;
  options.timeout_ms = 1e-6;  // expires immediately; granularity is the test
  for (Entry e : kEntries) {
    EntryRun r = RunEntry(e, graph, *query, options);
    EXPECT_TRUE(r.timed_out) << EntryName(e);
    EXPECT_FALSE(r.cancelled) << EntryName(e);
    EXPECT_EQ(r.results, 0u) << EntryName(e);
  }
}

TEST(ExecCancel, PreCancelledTrackerStopsEveryEntryPoint) {
  rdf::Graph graph = ProbeHeavyGraph();
  auto query = sparql::ParseQuery(kProbeHeavyQuery);
  ASSERT_TRUE(query.ok());

  for (Entry e : kEntries) {
    obs::ResourceTracker tracker;
    tracker.RequestCancel();
    obs::ExecTrace trace;
    exec::ExecOptions options;
    options.resources = &tracker;
    options.trace = &trace;
    EntryRun r = RunEntry(e, graph, *query, options);
    EXPECT_TRUE(r.timed_out) << EntryName(e);
    EXPECT_TRUE(r.cancelled) << EntryName(e);
    EXPECT_TRUE(tracker.cancelled()) << EntryName(e);
    // The final publish leaves the tracker holding the trace's totals.
    obs::ResourceSnapshot snap = tracker.Snapshot();
    EXPECT_GT(trace.total_rows_scanned, 0u) << EntryName(e);
    EXPECT_EQ(snap.index_probes, trace.total_probes) << EntryName(e);
    EXPECT_EQ(snap.rows_scanned, trace.total_rows_scanned) << EntryName(e);
  }
}

TEST(ExecCancel, PreCancelledTrackerStopsHashBuildOnEitherSide) {
  // 600 left rows keep the scan step under one work tick, so a cancel
  // requested before the run is served inside the merge step, on the
  // tick's 1024th unit of work. The scan orders its rows by ?x, so the
  // merge's left input is sorted on the join key ?y (ex:r rows) or not
  // (ex:q rows, which reach ex:s0..s599 in a stride-7 order).
  rdf::Graph graph;
  for (int i = 0; i < 3000; ++i) {
    graph.Add(rdf::Term::Iri("http://ex/s" + std::to_string(i)),
              rdf::Term::Iri("http://ex/p"),
              rdf::Term::Iri("http://ex/o" + std::to_string(i)));
  }
  for (int i = 0; i < 600; ++i) {
    graph.Add(rdf::Term::Iri("http://ex/s" + std::to_string(i * 7 % 600)),
              rdf::Term::Iri("http://ex/q"),
              rdf::Term::Iri("http://ex/t" + std::to_string(i)));
    graph.Add(rdf::Term::Iri("http://ex/s" + std::to_string(i)),
              rdf::Term::Iri("http://ex/r"),
              rdf::Term::Iri("http://ex/t" + std::to_string(i)));
  }
  graph.Finalize();

  for (bool sorted : {true, false}) {
    SCOPED_TRACE(sorted ? "sorted left" : "unsorted left");
    auto query = sparql::ParseQuery(
        std::string("PREFIX ex: <http://ex/> SELECT * WHERE { ?y ") +
        (sorted ? "ex:r" : "ex:q") + " ?x . ?y ex:p ?z }");
    ASSERT_TRUE(query.ok());
    sparql::EncodedBgp bgp = sparql::EncodeBgp(*query, graph.dict());
    opt::Plan plan;
    plan.order = {0, 1};
    phys::PlannerOptions merge;
    merge.mode = phys::JoinMode::kMerge;
    phys::PhysicalPlan pplan = phys::PlanPhysical(bgp, plan, graph, merge);
    ASSERT_EQ(pplan.steps[1].op, phys::OpKind::kMerge);

    obs::ResourceTracker tracker;
    tracker.RequestCancel();
    obs::ExecTrace trace;
    exec::ExecOptions options;
    options.resources = &tracker;
    options.trace = &trace;
    auto r = phys::ExecuteSelectPhysical(graph, *query, bgp, pplan, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->timed_out);
    EXPECT_TRUE(r->cancelled);
    EXPECT_EQ(trace.step_rows_scanned[0], 600u);  // the scan step completed
    EXPECT_EQ(trace.total_probes + trace.total_rows_scanned,
              exec::kTimeoutCheckInterval);
    // The merge stopped part-way through its 600 keys.
    EXPECT_GT(trace.step_probes[1], 0u);
    EXPECT_LT(trace.step_probes[1], 600u);
    if (sorted) {
      // Sorted keys emit each group as it is found, so the rows before
      // the cancel stay as partial final-step results.
      EXPECT_GT(trace.step_rows_produced[1], 0u);
      EXPECT_EQ(r->rows.size(), trace.step_rows_produced[1]);
    } else {
      // Unsorted keys locate every group before emitting any.
      EXPECT_EQ(trace.step_rows_scanned[1], 0u);
      EXPECT_EQ(trace.step_rows_produced[1], 0u);
      EXPECT_TRUE(r->rows.empty());
    }
  }
}

TEST(GlobalMetrics, EngineQueryIncrementsCounters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  uint64_t queries_before = reg.GetCounter("engine.queries")->value();
  uint64_t plans_before = reg.GetCounter("opt.plans")->value();
  uint64_t runs_before = reg.GetCounter("exec.select_runs")->value();

  engine::QueryEngine eng = OpenTiny();
  auto result = eng.Execute(kTinyQuery);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(reg.GetCounter("engine.queries")->value(), queries_before + 1);
  EXPECT_GT(reg.GetCounter("opt.plans")->value(), plans_before);
  EXPECT_EQ(reg.GetCounter("exec.select_runs")->value(), runs_before + 1);
}

// Every timed set-up phase of Open lands in its own histogram, exported on
// /metrics, and the engine.open event reports the index footprint.
TEST(GlobalMetrics, EngineOpenRecordsEveryPreprocessPhase) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const char* phases[] = {"engine.preprocess.global_stats_ms",
                          "engine.preprocess.generate_shapes_ms",
                          "engine.preprocess.annotate_ms"};
  std::vector<uint64_t> before;
  for (const char* name : phases) {
    before.push_back(reg.GetHistogram(name)->Snap().count);
  }
  obs::EventLog& log = obs::EventLog::Global();
  std::mutex mu;
  std::vector<obs::Event> opens;
  uint64_t token = log.Subscribe([&](const obs::Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e.type() == "engine.open") opens.push_back(e);
  });
  engine::QueryEngine eng = OpenTiny();
  log.Unsubscribe(token);

  for (size_t i = 0; i < std::size(phases); ++i) {
    EXPECT_EQ(reg.GetHistogram(phases[i])->Snap().count, before[i] + 1)
        << phases[i];
  }
  EXPECT_NE(reg.ToPrometheus().find("engine_preprocess_generate_shapes_ms"),
            std::string::npos);
  ASSERT_EQ(opens.size(), 1u);
  EXPECT_EQ(opens[0].FieldJson("index_bytes"),
            std::to_string(eng.graph().IndexBytes()));
  EXPECT_GT(eng.graph().IndexBytes(),
            4 * eng.graph().NumTriples() * sizeof(rdf::Triple));
}

TEST(ExecuteTrace, ThreadedThroughSelectPath) {
  engine::QueryEngine eng = OpenTiny();
  obs::QueryTrace trace;
  auto result = eng.Execute(kTinyQuery, &trace);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(trace.optimizer, "SS");
  for (const char* name : {"parse", "encode", "plan", "execute"}) {
    EXPECT_GE(trace.PhaseMs(name), 0.0) << "phase " << name;
  }
  EXPECT_EQ(trace.num_results, result->table.rows.size());
  EXPECT_GT(trace.exec.total_probes, 0u);
  EXPECT_GT(trace.planner.candidates_considered, 0u);
}

// --- histogram percentiles -------------------------------------------------

TEST(HistogramPercentile, EmptyAndSingleValue) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.Snap().Percentile(50), 0.0);

  h.Observe(7);
  obs::Histogram::Snapshot s = h.Snap();
  // One sample: every percentile collapses to it (bucket edges are clamped
  // to the observed [min, max]).
  EXPECT_DOUBLE_EQ(s.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 7.0);
}

TEST(HistogramPercentile, UniformSamplesInterpolateWithinBucket) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  obs::Histogram::Snapshot s = h.Snap();

  // p50: 31 samples land below bucket [32,64) (1; 2-3; 4-7; 8-15; 16-31),
  // which holds 32 samples, so rank 50 interpolates to 32 + 19/32*32 = 51.
  EXPECT_NEAR(s.Percentile(50), 51.0, 1e-9);
  // Tail percentiles stay inside the [64, max=100] bucket.
  double p95 = s.Percentile(95);
  double p99 = s.Percentile(99);
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p95, 100.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(s.Percentile(100), 100.0);
  EXPECT_LE(s.Percentile(50), p95);
}

TEST(HistogramPercentile, OverflowBucketIsBoundedByObservedRange) {
  obs::Histogram h;
  h.Observe(1e30);
  h.Observe(2e30);
  obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(obs::Histogram::BucketIndex(1e30), 63u);  // overflow bucket
  // The overflow bucket has no power-of-two upper edge; [min, max] bounds it.
  EXPECT_DOUBLE_EQ(s.Percentile(100), 2e30);
  EXPECT_DOUBLE_EQ(s.Percentile(1), 1.5e30);  // rank clamps to 1 -> frac 1/2
}

TEST(HistogramPercentile, ExportedInJsonAndText) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 8; ++i) reg.GetHistogram("lat")->Observe(3);
  std::string json = reg.ToJson();
  EXPECT_EQ(std::stod(JsonField(json, "p50", "\"lat\"")), 3.0);
  EXPECT_EQ(std::stod(JsonField(json, "p95", "\"lat\"")), 3.0);
  EXPECT_EQ(std::stod(JsonField(json, "p99", "\"lat\"")), 3.0);
  std::string text = reg.ToText();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

// --- event log -------------------------------------------------------------

TEST(EventLogTest, InactiveEmitIsNoOp) {
  obs::EventLog log;
  EXPECT_FALSE(log.active());
  log.Emit(obs::Event("ignored"));
  EXPECT_EQ(log.total_emitted(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());

  log.SetEnabled(true);
  EXPECT_TRUE(log.active());
  log.Emit(obs::Event("kept").Uint("n", 3));
  EXPECT_EQ(log.total_emitted(), 1u);
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type(), "kept");
  EXPECT_EQ(events[0].FieldJson("n"), "3");
  EXPECT_GE(events[0].ts_ms(), 0.0);  // stamped by Emit
}

TEST(EventLogTest, RingDropsOldestWhenFull) {
  obs::EventLog log(/*capacity=*/4);
  log.SetEnabled(true);
  for (uint64_t i = 0; i < 10; ++i) {
    log.Emit(obs::Event("e").Uint("i", i));
  }
  EXPECT_EQ(log.total_emitted(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().FieldJson("i"), "6");  // oldest retained
  EXPECT_EQ(events.back().FieldJson("i"), "9");

  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(EventLogTest, SubscribersReceiveUntilUnsubscribed) {
  obs::EventLog log;
  std::vector<std::string> seen;
  uint64_t token = log.Subscribe(
      [&seen](const obs::Event& e) { seen.push_back(e.type()); });
  EXPECT_TRUE(log.active());  // a subscriber is a sink
  log.Emit(obs::Event("one"));
  log.Emit(obs::Event("two"));
  log.Unsubscribe(token);
  EXPECT_FALSE(log.active());
  log.Emit(obs::Event("three"));  // dropped: no sink remains

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "one");
  EXPECT_EQ(seen[1], "two");
  EXPECT_EQ(log.total_emitted(), 2u);
}

TEST(EventLogTest, FileSinkWritesOneJsonObjectPerLine) {
  std::string path = testing::TempDir() + "/shapestats_events_test.jsonl";
  std::remove(path.c_str());
  {
    obs::EventLog log;
    ASSERT_TRUE(log.OpenFile(path).ok());
    EXPECT_TRUE(log.active());
    log.Emit(obs::Event("alpha").Uint("n", 1).Num("ms", 2.5));
    log.Emit(obs::Event("beta").Str("s", "say \"hi\"").Bool("ok", true));
    log.CloseFile();
    EXPECT_FALSE(log.active());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line1, line2, extra;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line2)));
  EXPECT_FALSE(static_cast<bool>(std::getline(in, extra)));

  EXPECT_EQ(line1.rfind("{\"ts_ms\":", 0), 0u);
  EXPECT_NE(line1.find("\"type\":\"alpha\""), std::string::npos);
  EXPECT_NE(line1.find("\"n\":1"), std::string::npos);
  EXPECT_NE(line2.find("\"type\":\"beta\""), std::string::npos);
  EXPECT_NE(line2.find("\\\"hi\\\""), std::string::npos);  // quotes escaped
  EXPECT_NE(line2.find("\"ok\":true"), std::string::npos);
  std::remove(path.c_str());
}

// Acceptance: a batched run with telemetry produces events that correlate
// slot-for-slot with BatchResult via batch_id.
TEST(EventLogTest, BatchQueryEventsAlignWithResultSlots) {
  engine::QueryEngine eng = OpenTiny();
  obs::EventLog& log = obs::EventLog::Global();
  std::mutex mu;
  std::vector<obs::Event> got;
  uint64_t token = log.Subscribe([&](const obs::Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(e);
  });

  std::vector<std::string> queries = {
      kTinyQuery,
      "THIS IS NOT SPARQL",
      "PREFIX ex: <http://ex/> SELECT * WHERE { ?p a ex:Prof }",
  };
  util::ThreadPool pool(2, "obs-batch-test");
  engine::BatchOptions opts;
  opts.pool = &pool;
  engine::BatchResult batch = eng.ExecuteBatch(queries, opts);
  log.Unsubscribe(token);
  ASSERT_NE(batch.batch_id, 0u);
  ASSERT_EQ(batch.results.size(), queries.size());

  const std::string id = std::to_string(batch.batch_id);
  std::vector<const obs::Event*> slots(queries.size(), nullptr);
  size_t starts = 0, finishes = 0;
  for (const obs::Event& e : got) {
    if (e.FieldJson("batch_id") != id) continue;
    if (e.type() == "batch.start") ++starts;
    if (e.type() == "batch.finish") ++finishes;
    if (e.type() != "batch.query") continue;
    size_t slot = std::stoull(e.FieldJson("slot"));
    ASSERT_LT(slot, slots.size());
    EXPECT_EQ(slots[slot], nullptr) << "duplicate event for slot " << slot;
    slots[slot] = &e;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    ASSERT_NE(slots[i], nullptr);
    const obs::Event& e = *slots[i];
    EXPECT_EQ(e.FieldJson("ok"), batch.results[i].ok() ? "true" : "false");
    if (batch.results[i].ok()) {
      EXPECT_EQ(std::stoull(e.FieldJson("results")),
                batch.results[i]->table.rows.size());
      EXPECT_EQ(e.FieldJson("timed_out"), "false");
    } else {
      EXPECT_FALSE(e.FieldJson("error").empty());
    }
  }
}

// --- chrome trace ----------------------------------------------------------

TEST(ChromeTraceTest, SpanRecordsCompleteEventWithArgs) {
  obs::ChromeTracer& tracer = obs::ChromeTracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    obs::TraceSpan span("test", "unit-span");
    span.Arg("key", "value");
  }
  tracer.Disable();
  std::string json = tracer.ToJson();
  tracer.Clear();

  EXPECT_NE(json.find("\"name\":\"unit-span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"value\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// The query lifecycle: one Chrome sub-span per phase, named from the same
// table as the QueryTrace phases, and a query.finish event carrying the
// outcome.
TEST(ChromeTraceTest, QueryEmitsOneSubSpanPerPhase) {
  engine::QueryEngine eng = OpenTiny();
  obs::ChromeTracer& tracer = obs::ChromeTracer::Global();
  obs::EventLog& log = obs::EventLog::Global();
  std::mutex mu;
  std::vector<obs::Event> finishes;
  uint64_t token = log.Subscribe([&](const obs::Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e.type() == "query.finish") finishes.push_back(e);
  });
  tracer.Clear();
  tracer.Enable();
  obs::QueryTrace trace;
  auto result = eng.Execute(kTinyQuery, &trace);
  tracer.Disable();
  log.Unsubscribe(token);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string json = tracer.ToJson();
  tracer.Clear();

  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  ASSERT_FALSE(trace.phases.empty());
  for (const obs::PhaseSpan& p : trace.phases) {
    EXPECT_NE(json.find("\"name\":\"" + p.name + "\""), std::string::npos)
        << p.name;
  }
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(finishes[0].FieldJson("outcome"), "\"ok\"");
  EXPECT_EQ(finishes[0].FieldJson("timed_out"), "false");
}

TEST(ChromeTraceTest, PoolHookRecordsWorkerTimelines) {
  obs::ChromeTracer& tracer = obs::ChromeTracer::Global();
  tracer.Clear();
  tracer.Enable();
  obs::InstallPoolTraceHook();
  {
    util::ThreadPool pool(2, "tracer-test");
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 64, [&sum](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2);
  }
  tracer.Disable();
  EXPECT_GT(tracer.NumEvents(), 0u);
  std::string json = tracer.ToJson();
  tracer.Clear();

  // Pool spans are named "<label>:<kind>" and carry thread_name metadata so
  // Perfetto shows one timeline per worker.
  EXPECT_NE(json.find("tracer-test:"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pool\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

TEST(ChromeTraceTest, WriteFileProducesLoadableJson) {
  obs::ChromeTracer& tracer = obs::ChromeTracer::Global();
  tracer.Clear();
  tracer.Enable();
  tracer.AddComplete("test", "file-span", 10.0, 5.0);
  tracer.Disable();

  std::string path = testing::TempDir() + "/shapestats_trace_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(tracer.WriteFile(path).ok());
  tracer.Clear();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(content.find("\"file-span\""), std::string::npos);
  std::remove(path.c_str());
}

// --- accuracy ledger -------------------------------------------------------

TEST(AccuracyLedgerTest, ExactPercentileInterpolatesOrderStatistics) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(obs::ExactPercentile(empty, 50), 0.0);

  std::vector<double> v = {4, 1, 3, 2};  // sorted in place by the call
  EXPECT_DOUBLE_EQ(obs::ExactPercentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::ExactPercentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(obs::ExactPercentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(obs::ExactPercentile(v, 25), 1.75);

  std::vector<double> one = {9};
  EXPECT_DOUBLE_EQ(obs::ExactPercentile(one, 50), 9.0);
}

TEST(AccuracyLedgerTest, RecordFiltersNonFiniteAndDefaultsJoinType) {
  obs::QueryTrace trace;
  trace.optimizer = "SS";
  trace.query_shape = "star";
  obs::StepTrace s1;
  s1.source = "shape";
  s1.join_type = "scan";
  s1.q_error = 2.0;
  obs::StepTrace s2;
  s2.source = "global";
  s2.join_type = "";  // ledger defaults empty join types to "join"
  s2.q_error = 4.0;
  obs::StepTrace s3;
  s3.source = "textual";
  s3.q_error = std::nan("");  // no cardinality model: skipped
  trace.steps = {s1, s2, s3};

  obs::AccuracyLedger ledger;
  ledger.Record(trace);
  EXPECT_EQ(ledger.num_queries(), 1u);
  EXPECT_EQ(ledger.num_steps(), 2u);
  EXPECT_DOUBLE_EQ(
      ledger.Percentile({"SS", "star", "global", "join"}, 50), 4.0);
  EXPECT_DOUBLE_EQ(
      ledger.Percentile({"SS", "star", "shape", "scan"}, 50), 2.0);
  EXPECT_DOUBLE_EQ(
      ledger.Percentile({"SS", "star", "textual", "join"}, 50), 0.0);

  ledger.Reset();
  EXPECT_EQ(ledger.num_queries(), 0u);
  EXPECT_EQ(ledger.num_steps(), 0u);
}

TEST(AccuracyLedgerTest, SnapshotAppendsPerOptimizerRollups) {
  obs::AccuracyLedger ledger;
  ledger.RecordStep({"GS", "star", "global", "scan"}, 2.0);
  ledger.RecordStep({"GS", "star", "global", "join"}, 8.0);
  ledger.RecordStep({"SS", "path", "shape", "join"}, 3.0);

  std::vector<obs::AccuracyLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 5u);  // 3 keys + 2 optimizer rollups
  // Per-key rows first (sorted by key), rollups ("*") after.
  EXPECT_EQ(rows[0].key.optimizer, "GS");
  EXPECT_EQ(rows[0].key.join_type, "join");
  EXPECT_EQ(rows[1].key.join_type, "scan");
  EXPECT_EQ(rows[2].key.optimizer, "SS");
  EXPECT_EQ(rows[3].key, (obs::AccuracyKey{"GS", "*", "*", "*"}));
  EXPECT_EQ(rows[4].key, (obs::AccuracyKey{"SS", "*", "*", "*"}));
  EXPECT_EQ(rows[3].summary.steps, 2u);
  EXPECT_DOUBLE_EQ(rows[3].summary.mean, 5.0);
  EXPECT_DOUBLE_EQ(rows[3].summary.p50, 5.0);
  EXPECT_DOUBLE_EQ(rows[3].summary.max, 8.0);
  EXPECT_DOUBLE_EQ(rows[4].summary.p50, 3.0);

  std::string table = ledger.ToTable();
  EXPECT_NE(table.find("optimizer"), std::string::npos);
  EXPECT_NE(table.find("3 join steps"), std::string::npos);
  std::string json = ledger.ToJson();
  EXPECT_NE(json.find("\"optimizer\":\"GS\""), std::string::npos);
  EXPECT_NE(json.find("\"query_shape\":\"*\""), std::string::npos);
}

// Acceptance: a fixed workload traced on SS and GS engines reproduces the
// `.accuracy` percentiles from the per-step q-errors of the traces.
TEST(AccuracyLedgerTest, EngineWorkloadReproducesAccuracyPercentiles) {
  const char* kWorkload[] = {
      kTinyQuery,
      "PREFIX ex: <http://ex/> SELECT * WHERE "
      "{ ?x a ex:Student . ?x ex:takes ?c }",
      "PREFIX ex: <http://ex/> SELECT * WHERE "
      "{ ?p a ex:Prof . ?p ex:teaches ?c }",
  };
  engine::QueryEngine ss = OpenTiny();
  engine::QueryEngine gs =
      OpenTiny(engine::EngineOptions::Optimizer::kGlobalStats);

  std::vector<double> ss_q, gs_q;
  for (const char* text : kWorkload) {
    obs::QueryTrace ts, tg;
    ASSERT_TRUE(ss.Execute(text, &ts).ok());
    ASSERT_TRUE(gs.Execute(text, &tg).ok());
    ASSERT_FALSE(ts.steps.empty());
    for (const obs::StepTrace& s : ts.steps) {
      if (std::isfinite(s.q_error)) ss_q.push_back(s.q_error);
    }
    for (const obs::StepTrace& s : tg.steps) {
      if (std::isfinite(s.q_error)) gs_q.push_back(s.q_error);
    }
  }
  ASSERT_FALSE(ss_q.empty());
  ASSERT_FALSE(gs_q.empty());

  EXPECT_EQ(ss.accuracy_ledger().num_queries(), 3u);
  EXPECT_EQ(ss.accuracy_ledger().num_steps(), ss_q.size());

  auto rollup = [](const obs::AccuracyLedger& ledger,
                   const std::string& optimizer) {
    for (const obs::AccuracyLedger::Row& row : ledger.Snapshot()) {
      if (row.key.optimizer == optimizer && row.key.query_shape == "*") {
        return row.summary;
      }
    }
    return obs::AccuracySummary{};
  };
  obs::AccuracySummary ss_sum = rollup(ss.accuracy_ledger(), "SS");
  obs::AccuracySummary gs_sum = rollup(gs.accuracy_ledger(), "GS");
  EXPECT_EQ(ss_sum.steps, ss_q.size());
  EXPECT_EQ(gs_sum.steps, gs_q.size());
  EXPECT_DOUBLE_EQ(ss_sum.p50, obs::ExactPercentile(ss_q, 50));
  EXPECT_DOUBLE_EQ(ss_sum.p95, obs::ExactPercentile(ss_q, 95));
  EXPECT_DOUBLE_EQ(ss_sum.max, obs::ExactPercentile(ss_q, 100));
  EXPECT_DOUBLE_EQ(gs_sum.p50, obs::ExactPercentile(gs_q, 50));

  // SS answers type patterns from shape statistics; GS never does.
  bool ss_shape = false, gs_shape = false;
  for (const auto& row : ss.accuracy_ledger().Snapshot()) {
    if (row.key.source == "shape") ss_shape = true;
  }
  for (const auto& row : gs.accuracy_ledger().Snapshot()) {
    if (row.key.source == "shape") gs_shape = true;
  }
  EXPECT_TRUE(ss_shape);
  EXPECT_FALSE(gs_shape);

  // The `.accuracy` shell command renders exactly these rows.
  std::string table = ss.accuracy_ledger().ToTable();
  EXPECT_NE(table.find("SS"), std::string::npos);
  EXPECT_NE(table.find("3 traced queries"), std::string::npos);
}

TEST(AccuracyLedgerTest, EngineSkipsInexactQueries) {
  engine::QueryEngine eng = OpenTiny();
  obs::QueryTrace trace;
  // ASK and LIMIT stop early, so their measured cardinalities are not the
  // true ones; the ledger must not learn from them.
  ASSERT_TRUE(
      eng.Execute("PREFIX ex: <http://ex/> ASK { ?x a ex:Student }", &trace)
          .ok());
  EXPECT_EQ(eng.accuracy_ledger().num_queries(), 0u);

  obs::QueryTrace trace2;
  ASSERT_TRUE(eng.Execute("PREFIX ex: <http://ex/> SELECT * WHERE "
                          "{ ?x a ex:Student } LIMIT 1",
                          &trace2)
                  .ok());
  EXPECT_EQ(eng.accuracy_ledger().num_queries(), 0u);

  // Untraced executions record nothing either.
  ASSERT_TRUE(eng.Execute(kTinyQuery).ok());
  EXPECT_EQ(eng.accuracy_ledger().num_queries(), 0u);

  obs::QueryTrace trace3;
  ASSERT_TRUE(eng.Execute(kTinyQuery, &trace3).ok());
  EXPECT_EQ(eng.accuracy_ledger().num_queries(), 1u);
  EXPECT_GT(eng.accuracy_ledger().num_steps(), 0u);

  eng.ResetAccuracyLedger();
  EXPECT_EQ(eng.accuracy_ledger().num_queries(), 0u);
  EXPECT_EQ(eng.accuracy_ledger().num_steps(), 0u);
}

TEST(ExplainAnalyze, FeedsAccuracyLedgerAndClassifiesJoinTypes) {
  engine::QueryEngine eng = OpenTiny();
  auto analyzed = eng.ExplainAnalyze(kTinyQuery);
  ASSERT_TRUE(analyzed.ok());
  ASSERT_EQ(analyzed->trace.steps.size(), 3u);
  EXPECT_EQ(analyzed->trace.steps[0].join_type, "scan");
  // Physical operator names replace the generic "join": on this tiny data
  // the auto planner's tiny-left rule picks INLJ for every join step.
  for (size_t k = 1; k < analyzed->trace.steps.size(); ++k) {
    EXPECT_EQ(analyzed->trace.steps[k].join_type, "inlj") << "step " << k;
  }
  EXPECT_NE(analyzed->json.find("\"join_type\":\"scan\""), std::string::npos);
  EXPECT_EQ(eng.accuracy_ledger().num_queries(), 1u);
}

}  // namespace
}  // namespace shapestats
