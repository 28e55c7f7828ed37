// Introspection-plane overhead benchmark (src/obs/): two claims, both
// asserted in-binary so CI fails on violation, plus BENCH_introspection.json
// telemetry gated by tools/bench_diff against the checked-in baseline.
//
//   1. correctness — the query registry and per-query resource accounting
//      never change results: the fig4a LUBM workload produces byte-identical
//      result tables with the registry on vs off, sequentially and under
//      batch pools of 1 and 4 threads (the digest covers every row of every
//      query), while the on-engine's completed records demonstrably carry
//      non-empty resource snapshots (the accounting is measuring, not
//      disabled);
//   2. performance — the amortized publish tick keeps the accounting
//      overhead at or below 5% of workload wall time, measured over
//      interleaved trials with the best trial per mode gated (one noisy
//      trial on a shared runner must not flip CI);
//   3. fixed per-query cost — on a stream of short constant-anchored LUBM
//      lookups with the plan cache on, where execution is a small share of
//      each query, the registry still costs at most 5%, and a lookup makes
//      at most 0.7x the heap allocations it made before the one-pass front
//      end and the allocation-free registry (counted by the replaced
//      global operator new below; this binary is its own executable).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_telemetry.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "obs/query_registry.h"
#include "rdf/vocab.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

// Every heap allocation of the process, counted for the lookup pass's
// allocations-per-query gate.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace shapestats;

namespace {

/// Heap allocations per lookup query of the registry-on pass below, as
/// measured on the commit before the one-pass front end (gcc 12.2,
/// libstdc++, Release). The gate allows at most 0.7x of it.
constexpr double kParentAllocsPerLookup = 105.5;

uint64_t Fnv1a(uint64_t v, uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

uint64_t TableDigest(const exec::ResultTable& table, uint64_t h) {
  h = Fnv1a(table.var_names.size(), h);
  h = Fnv1a(table.rows.size(), h);
  for (const auto& row : table.rows) {
    for (rdf::TermId t : row) h = Fnv1a(t, h);
  }
  return h;
}

uint64_t ResultDigest(const engine::QueryResult& r, uint64_t h) {
  h = Fnv1a(r.ask.has_value() ? 1 + static_cast<uint64_t>(*r.ask) : 0, h);
  h = Fnv1a(r.count.has_value() ? 1 + *r.count : 0, h);
  return TableDigest(r.table, h);
}

engine::QueryEngine OpenLubm(engine::EngineOptions::RegistryMode mode,
                             uint32_t universities = 5,
                             bool plan_cache = false) {
  datagen::LubmOptions dopts;
  dopts.universities = universities;
  engine::EngineOptions opts;
  opts.registry = mode;
  opts.plan_cache = plan_cache ? engine::EngineOptions::PlanCacheMode::kOn
                               : engine::EngineOptions::PlanCacheMode::kOff;
  auto e = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
  if (!e.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 e.status().ToString().c_str());
    std::abort();
  }
  return std::move(e).value();
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "bench_introspection: FAILED: %s\n", what);
  std::exit(1);
}

/// A stream of `n` short lookups: constant-anchored stars and two- or
/// three-hop paths in the shapes of the lubm-lookup benchmark, each anchor
/// (`$`) drawn from the instances of its class, with the query forms
/// (SELECT, DISTINCT, LIMIT, COUNT, ASK, FILTER) rotating over them.
std::vector<std::string> LookupStream(const rdf::Graph& g, size_t n,
                                      uint64_t seed) {
  struct Template {
    const char* cls;   // class of the anchor constant
    const char* vars;  // projection
    const char* body;  // BGP with `$` for the anchor
  };
  static const Template kTemplates[] = {
      {"FullProfessor", "?n ?e",
       "$ a ub:FullProfessor . $ ub:name ?n . $ ub:emailAddress ?e ."},
      {"AssociateProfessor", "?d ?u",
       "$ a ub:AssociateProfessor . $ ub:worksFor ?d . $ ub:degreeFrom ?u ."},
      {"GraduateStudent", "?p ?dn",
       "$ ub:advisor ?p . ?p ub:worksFor ?d . ?d ub:name ?dn ."},
      {"UndergraduateStudent", "?t ?tn",
       "$ ub:takesCourse ?k . ?t ub:teacherOf ?k . ?t ub:name ?tn ."},
      {"Department", "?x ?v", "?x a ub:Lecturer . ?x ub:worksFor $ . "
                              "?x ub:name ?v ."},
      {"AssistantProfessor", "?s ?n",
       "$ ub:teacherOf ?c . ?s ub:takesCourse ?c . ?s ub:name ?n ."},
      {"University", "?d ?n", "?d ub:subOrganizationOf $ . ?d ub:name ?n ."},
  };
  const std::string ub = datagen::kUbNs;
  const auto type = g.dict().FindIri(rdf::vocab::kRdfType);
  if (!type) Fail("graph has no rdf:type");
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Template& t = kTemplates[i % std::size(kTemplates)];
    const auto cls = g.dict().FindIri(ub + t.cls);
    if (!cls) Fail("lookup anchor class missing");
    auto members = g.Match(std::nullopt, *type, *cls);
    if (members.empty()) Fail("lookup anchor class has no instances");
    const std::string anchor = g.dict().ToNTriples(
        members[rng.Uniform(0, members.size() - 1)].s);
    std::string body = t.body;
    for (size_t at = body.find('$'); at != std::string::npos;
         at = body.find('$', at + anchor.size())) {
      body.replace(at, 1, anchor);
    }
    const std::string vars = t.vars;
    const std::string last = vars.substr(vars.rfind('?'));
    std::string q = "PREFIX ub: <" + ub + ">\n";
    switch ((i / std::size(kTemplates)) % 6) {
      case 0: q += "SELECT " + vars + " WHERE { " + body + " }"; break;
      case 1: q += "SELECT DISTINCT " + last + " WHERE { " + body + " }";
        break;
      case 2: q += "SELECT " + vars + " WHERE { " + body + " } LIMIT 5";
        break;
      case 3: q += "SELECT (COUNT(*) AS ?count) WHERE { " + body + " }";
        break;
      case 4: q += "ASK { " + body + " }"; break;
      default:
        q += "SELECT " + vars + " WHERE { " + body + " FILTER(" + last +
             " != \"none\") }";
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

int main() {
  bench::BenchTelemetry telemetry("introspection");
  std::printf("=== Introspection plane: byte-identity, accounting overhead ===\n\n");

  engine::QueryEngine off =
      OpenLubm(engine::EngineOptions::RegistryMode::kOff);
  engine::QueryEngine on = OpenLubm(engine::EngineOptions::RegistryMode::kOn);
  if (off.query_registry() != nullptr) Fail("kOff engine has a registry");
  if (on.query_registry() == nullptr) Fail("kOn engine has no registry");
  std::printf("LUBM-5: %s triples, fig4a workload\n",
              WithCommas(off.graph().NumTriples()).c_str());

  std::vector<std::string> workload;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    workload.push_back(q.text);
  }
  std::printf("workload: %zu queries\n\n", workload.size());
  const uint64_t registered_before = on.query_registry()->registered_total();

  // --- 1a. byte-identity, sequential --------------------------------
  uint64_t digest_off = 1469598103934665603ull;
  uint64_t digest_on = 1469598103934665603ull;
  for (const std::string& q : workload) {
    auto a = off.Execute(q);
    auto b = on.Execute(q);
    if (!a.ok() || !b.ok()) Fail("query execution errored");
    digest_off = TableDigest(a->table, digest_off);
    digest_on = TableDigest(b->table, digest_on);
  }
  if (digest_off != digest_on) Fail("registry-on results diverge from off");
  std::printf("sequential digest %016llx (registry on == off)\n",
              static_cast<unsigned long long>(digest_off));
  telemetry.Digest("introspection.results", digest_off);
  telemetry.Counter("introspection.queries",
                    static_cast<double>(workload.size()));

  // The accounting must actually be measuring while results stay
  // identical: every completed record of the sequential pass carries a
  // resource snapshot with real index work behind it.
  std::vector<obs::QueryRecord> done =
      on.query_registry()->Completed(workload.size());
  if (done.size() < workload.size()) Fail("registry missed completions");
  for (const obs::QueryRecord& rec : done) {
    if (rec.outcome != "ok") Fail("completed record outcome is not ok");
    if (rec.resources.Empty()) Fail("completed record has empty resources");
    if (rec.resources.index_probes == 0) Fail("record counted no probes");
  }
  std::printf("registry: %zu completed records, all with resource "
              "snapshots (probes > 0)\n",
              done.size());

  // --- 1b. byte-identity under batch pools --------------------------
  for (unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    engine::BatchOptions bopts;
    bopts.pool = &pool;
    engine::BatchResult ref = off.ExecuteBatch(workload, bopts);
    engine::BatchResult got = on.ExecuteBatch(workload, bopts);
    uint64_t dr = 1469598103934665603ull, dg = dr;
    for (size_t i = 0; i < workload.size(); ++i) {
      if (!ref.results[i].ok() || !got.results[i].ok()) {
        Fail("batch slot errored");
      }
      dr = TableDigest(ref.results[i]->table, dr);
      dg = TableDigest(got.results[i]->table, dg);
    }
    if (dr != dg) Fail("batch results diverge registry on vs off");
    if (dr != digest_off) Fail("batch results diverge from sequential");
    std::printf("pool=%u digest %016llx (on == off == sequential)\n", threads,
                static_cast<unsigned long long>(dr));
  }

  // --- 2. accounting overhead ---------------------------------------
  // Interleaved trials, best per mode: the floor asserts what the
  // amortized publish tick costs in the best case each mode is capable
  // of, so scheduler noise on one trial cannot flip CI. The sequential
  // and pool passes above already warmed both engines.
  const int trials = 5;
  auto run_workload_ms = [&workload](const engine::QueryEngine& eng) {
    double t0 = NowMs();
    for (const std::string& q : workload) {
      auto r = eng.Execute(q);
      if (!r.ok()) Fail("timed execution errored");
    }
    return NowMs() - t0;
  };
  double best_off = 0, best_on = 0;
  std::printf("\n");
  for (int trial = 0; trial < trials; ++trial) {
    double t_off = run_workload_ms(off);
    double t_on = run_workload_ms(on);
    std::printf("trial %d: off %.2f ms, on %.2f ms\n", trial, t_off, t_on);
    if (trial == 0 || t_off < best_off) best_off = t_off;
    if (trial == 0 || t_on < best_on) best_on = t_on;
  }
  double overhead_pct =
      best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0;
  std::printf("best: off %.2f ms, on %.2f ms -> overhead %.2f%% "
              "(budget 5%%)\n",
              best_off, best_on, overhead_pct);
  telemetry.Timing("introspection.workload_off_ms", best_off);
  telemetry.Timing("introspection.workload_on_ms", best_on);
  telemetry.Counter("introspection.overhead_within_bounds",
                    overhead_pct <= 5.0 ? 1 : 0);
  if (overhead_pct > 5.0) Fail("accounting overhead above the 5% budget");

  // Every on-engine execution above must have registered exactly once:
  // sequential + two pools + the timed trials.
  const uint64_t registered =
      on.query_registry()->registered_total() - registered_before;
  const uint64_t expected =
      static_cast<uint64_t>(workload.size()) * (1 + 2 + trials);
  if (registered != expected) Fail("registration count mismatch");
  telemetry.Counter("introspection.registered",
                    static_cast<double>(registered));
  std::printf("registry saw %llu registrations (expected %llu)\n",
              static_cast<unsigned long long>(registered),
              static_cast<unsigned long long>(expected));

  // --- 3. fixed per-query cost on short lookups ----------------------
  // Plan cache on, so most lookups skip planning and the front end,
  // lifecycle and registry are most of each query.
  engine::QueryEngine lk_off = OpenLubm(
      engine::EngineOptions::RegistryMode::kOff, 1, /*plan_cache=*/true);
  engine::QueryEngine lk_on = OpenLubm(
      engine::EngineOptions::RegistryMode::kOn, 1, /*plan_cache=*/true);
  const std::vector<std::string> lookups =
      LookupStream(lk_on.graph(), 2100, /*seed=*/7);
  std::printf("\nlookup pass: LUBM-1, %zu constant-anchored lookups, plan "
              "cache on\n",
              lookups.size());
  const uint64_t lookup_registered_before =
      lk_on.query_registry()->registered_total();
  auto run_lookups = [&lookups](const engine::QueryEngine& eng) {
    uint64_t h = 1469598103934665603ull;
    for (const std::string& q : lookups) {
      auto r = eng.Execute(q);
      if (!r.ok()) Fail("lookup execution errored");
      h = ResultDigest(*r, h);
    }
    return h;
  };
  // The first pass fills both plan caches and pins the answers.
  const uint64_t lookup_digest_off = run_lookups(lk_off);
  const uint64_t lookup_digest_on = run_lookups(lk_on);
  if (lookup_digest_off != lookup_digest_on) {
    Fail("lookup results diverge registry on vs off");
  }
  std::printf("lookup digest %016llx (registry on == off)\n",
              static_cast<unsigned long long>(lookup_digest_on));
  telemetry.Digest("introspection.lookup_results", lookup_digest_on);
  telemetry.Counter("introspection.lookup_queries",
                    static_cast<double>(lookups.size()));

  auto allocs_per_lookup = [&](const engine::QueryEngine& eng) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    run_lookups(eng);
    return static_cast<double>(
               g_allocations.load(std::memory_order_relaxed) - before) /
           static_cast<double>(lookups.size());
  };
  const double allocs_off = allocs_per_lookup(lk_off);
  const double allocs_on = allocs_per_lookup(lk_on);
  const double allocs_budget = 0.7 * kParentAllocsPerLookup;
  std::printf("heap allocations per lookup: registry off %.1f, on %.1f "
              "(budget %.1f = 0.7 x %.1f before)\n",
              allocs_off, allocs_on, allocs_budget, kParentAllocsPerLookup);
  telemetry.Counter("introspection.lookup_allocs_within_bounds",
                    allocs_on <= allocs_budget ? 1 : 0);
  if (allocs_on > allocs_budget) Fail("lookup allocations above budget");

  // The same best-of-interleaved-trials gate as the fig4a pass, taken per
  // chunk of the stream: a lookup pass lasts only tens of milliseconds, so
  // each 300-query chunk keeps its best time per engine over the trials
  // (the engine that runs first alternates), and the gate compares the
  // sums. A scheduler hiccup then spoils one chunk of one trial, not a
  // whole trial.
  const int lookup_trials = 15;
  const size_t chunk = 300;
  const size_t num_chunks = (lookups.size() + chunk - 1) / chunk;
  std::vector<double> chunk_off(num_chunks, 0), chunk_on(num_chunks, 0);
  auto run_chunk = [&](const engine::QueryEngine& eng, size_t c) {
    const double t0 = NowMs();
    for (size_t i = c * chunk; i < std::min(lookups.size(), (c + 1) * chunk);
         ++i) {
      if (!eng.Execute(lookups[i]).ok()) Fail("lookup execution errored");
    }
    return NowMs() - t0;
  };
  for (int trial = 0; trial < lookup_trials; ++trial) {
    for (size_t c = 0; c < num_chunks; ++c) {
      double t_off = 0, t_on = 0;
      if ((trial + c) % 2 == 0) {
        t_off = run_chunk(lk_off, c);
        t_on = run_chunk(lk_on, c);
      } else {
        t_on = run_chunk(lk_on, c);
        t_off = run_chunk(lk_off, c);
      }
      if (trial == 0 || t_off < chunk_off[c]) chunk_off[c] = t_off;
      if (trial == 0 || t_on < chunk_on[c]) chunk_on[c] = t_on;
    }
  }
  double lk_best_off = 0, lk_best_on = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    lk_best_off += chunk_off[c];
    lk_best_on += chunk_on[c];
  }
  const double lookup_overhead_pct =
      lk_best_off > 0 ? 100.0 * (lk_best_on - lk_best_off) / lk_best_off : 0;
  std::printf("lookup best (sum of per-chunk bests over %d trials): off "
              "%.2f ms, on %.2f ms -> overhead %.2f%% (budget 5%%)\n",
              lookup_trials, lk_best_off, lk_best_on, lookup_overhead_pct);
  telemetry.Timing("introspection.lookup_off_ms", lk_best_off);
  telemetry.Timing("introspection.lookup_on_ms", lk_best_on);
  telemetry.Counter("introspection.lookup_overhead_within_bounds",
                    lookup_overhead_pct <= 5.0 ? 1 : 0);
  if (lookup_overhead_pct > 5.0) {
    Fail("registry overhead on lookups above the 5% budget");
  }
  // Every lookup registered: the warm-up, the allocation pass and the
  // timed trials.
  const uint64_t lookup_registered =
      lk_on.query_registry()->registered_total() - lookup_registered_before;
  if (lookup_registered !=
      static_cast<uint64_t>(lookups.size()) * (2 + lookup_trials)) {
    Fail("lookup registration count mismatch");
  }

  std::printf("\nbench_introspection: all assertions passed\n");
  return 0;
}
