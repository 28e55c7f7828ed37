// shapebench: the shapestats benchmark program.
//
//   shapebench --workload <lubm-analytic|lubm-lookup|yago-hetero>
//              --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// One client in one process drives the engine in a closed loop: each query
// is sent when the previous one has completed, and runs on the calling
// thread. The seed feeds the data generators and the lookup sampler.
// With --trace 0 the run reports the end-to-end metrics (set-up time,
// throughput, latency, memory, plan cost); with --trace 1 a traced replay
// through the layer functions reports the per-layer metrics and writes a
// Chrome trace into --out. Every answer is checked against an oracle.
// The last line of standard output is one JSON object with the result.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/charsets/char_sets.h"
#include "check.h"
#include "exec/executor.h"
#include "obs/build_info.h"
#include "opt/join_order.h"
#include "rdf/ntriples.h"
#include "replay.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload.h"

namespace shapestats::shapebench {
namespace {

/// Set-up rounds per timed and per traced run; set-up metrics are their
/// median.
constexpr int kSetupRounds = 5;
constexpr int kTracedSetupRounds = 3;
/// Untimed warm-up before the timed loop (at least one pass of the list).
constexpr double kWarmupMs = 1000;
/// Distinct queries the traced run profiles execution on.
constexpr size_t kProfileCap = 2000;
/// Repetitions per profiled execution (the minimum is kept).
constexpr int kProfileReps = 3;
/// Row cap for executing global-statistics plans, which can be far worse
/// than the engine's.
constexpr uint64_t kGsRowCap = 20'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/out";
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "shapebench: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a.out = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (argc % 2 == 0) Die("arguments come in --name value pairs");
  if (FindWorkload(a.workload) == nullptr) {
    Die("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Query latencies of a timed run that passes over the query list many
/// times. A query's latency is the fastest of its repetitions: on a shared
/// host, co-tenants slow a run in bursts that last from milliseconds to
/// minutes, and the fastest repetition leaves them out where a mean or
/// median would follow them. Its memory does not grow with throughput, so
/// `rss_mb` holds none of it.
class PassLatencies {
 public:
  explicit PassLatencies(size_t n) : fastest_(n, HUGE_VAL) {}

  /// Records the latency of position `i` of the list.
  void Add(size_t i, double ms) {
    fastest_[i] = std::min(fastest_[i], ms);
    busy_ms_ += ms;
    ++count_;
  }

  uint64_t count() const { return count_; }
  uint64_t passes() const { return count_ / fastest_.size(); }
  double busy_ms() const { return busy_ms_; }
  /// Per position of the list; call after at least one pass.
  const std::vector<double>& fastest() const { return fastest_; }

 private:
  std::vector<double> fastest_;
  uint64_t count_ = 0;
  double busy_ms_ = 0;
};

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

/// Metrics in insertion order, rendered as the result object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }
  void PrintTable() const {
    for (const Item& m : items_) {
      std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Host calibration block.

uint64_t Spin(uint64_t iters, uint64_t x) {
  for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + i;
  return x;
}

struct Host {
  unsigned nproc = 1;
  double spin_ms = 0;
  double parallel_spin_ms = 0;
  double effective_parallelism = 1;
};

Host MeasureHost() {
  constexpr uint64_t kIters = 40'000'000;
  Host h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<uint64_t> sink{0};
  std::vector<double> single;
  for (int r = 0; r < 3; ++r) {
    Timer t;
    sink += Spin(kIters, r + 1);
    single.push_back(t.ElapsedMs());
  }
  h.spin_ms = Median(single);
  Timer t;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < h.nproc; ++i) {
    threads.emplace_back([&sink, i] { sink += Spin(kIters, i + 7); });
  }
  for (std::thread& th : threads) th.join();
  h.parallel_spin_ms = t.ElapsedMs();
  h.effective_parallelism = h.nproc * h.spin_ms / h.parallel_spin_ms;
  if (sink.load() == 42) std::fprintf(stderr, " ");  // keeps the spins live
  return h;
}

std::string HostJson(const Host& h, unsigned pool_threads) {
  const obs::BuildInfo& b = obs::GetBuildInfo();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"pool_threads\": %u, \"spin_ms\": %.4f, "
                "\"parallel_spin_ms\": %.4f, \"effective_parallelism\": %.4f, ",
                h.nproc, pool_threads, h.spin_ms, h.parallel_spin_ms,
                h.effective_parallelism);
  return std::string(buf) + "\"build_type\": \"" + b.build_type +
         "\", \"flags\": \"" + b.flags + "\", \"compiler\": \"" + b.compiler +
         "\"}";
}

// ---------------------------------------------------------------------------
// Queries and their oracles.

/// The workload's query list with each distinct text parsed and checked
/// once, outside any timing.
struct QuerySet {
  std::vector<std::string> texts;      // execution order
  std::vector<size_t> distinct_of;     // texts[i] -> distinct index
  std::vector<sparql::ParsedQuery> parsed;  // per distinct query
  std::vector<Expected> expected;           // per distinct query
};

QuerySet PrepareQueries(const Workload& w, uint64_t seed,
                        const engine::QueryEngine& eng) {
  QuerySet qs;
  qs.texts = BuildQueries(w, seed, eng.graph());
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < qs.texts.size(); ++i) {
    auto [it, fresh] = index.emplace(qs.texts[i], qs.parsed.size());
    qs.distinct_of.push_back(it->second);
    if (!fresh) continue;
    qs.parsed.push_back(Check(sparql::ParseQuery(qs.texts[i]), "parse"));
    qs.expected.push_back(Check(Oracle(eng, qs.texts[i]), "oracle"));
  }
  return qs;
}

/// What RunChecked keeps of an engine result besides the verdict.
struct Kept {
  opt::Plan plan;
  phys::PhysicalPlan phys;
  uint64_t digest = 0;  // of the answer
};

/// Runs one query on the engine and checks the answer. Returns the
/// latency in milliseconds through `ms`; false on a wrong or failed
/// answer.
bool RunChecked(const engine::QueryEngine& eng, const QuerySet& qs, size_t i,
                double* ms, Kept* keep = nullptr) {
  const size_t d = qs.distinct_of[i];
  Timer t;
  Result<engine::QueryResult> r = eng.Execute(qs.texts[i]);
  *ms = t.ElapsedMs();
  if (!r.ok()) return false;
  if (keep != nullptr) {
    keep->plan = r->plan;
    keep->phys = r->phys;
  }
  Answer a = FromEngine(qs.parsed[d], std::move(r).value());
  if (keep != nullptr) keep->digest = Digest(qs.parsed[d], a);
  return Matches(qs.parsed[d], qs.expected[d], a);
}

/// Sum of true intermediate cardinalities of `plan` (exec::ExecuteBgp over
/// its join order), the paper's plan cost.
uint64_t TrueCost(const rdf::Graph& g, const sparql::ParsedQuery& q,
                  const opt::Plan& plan, bool* capped = nullptr,
                  std::vector<uint64_t>* steps = nullptr) {
  if (plan.order.empty()) return 0;
  sparql::EncodedBgp bgp = sparql::EncodeBgp(q, g.dict());
  exec::ExecOptions o;
  if (capped != nullptr) o.max_intermediate_rows = kGsRowCap;
  exec::ExecResult r = Check(exec::ExecuteBgp(g, bgp, plan.order, o), "cost");
  if (capped != nullptr) *capped = r.timed_out;
  if (steps != nullptr) *steps = r.step_cards;
  return r.TrueCost();
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int RunTimed(const Args& args, const Workload& w, util::ThreadPool& pool,
             const std::string& data) {
  const engine::EngineOptions opts = EngineOptionsFor(w, &pool);
  std::vector<double> setup_s;
  std::optional<engine::QueryEngine> eng;
  for (int round = 0; round < kSetupRounds; ++round) {
    eng.reset();
    malloc_trim(0);
    Timer t;
    engine::QueryEngine e =
        Check(engine::QueryEngine::FromNTriplesFile(data, opts), "load");
    setup_s.push_back(t.ElapsedMs() / 1e3);
    eng.emplace(std::move(e));
  }
  const QuerySet qs = PrepareQueries(w, args.seed, *eng);
  const size_t n = qs.texts.size();

  PassLatencies lat(n);

  // Untimed warm-up. Its first pass is checked like the timed loop and
  // yields the chosen plans, whose true cost is deterministic for a seed.
  uint64_t attempted = n;
  uint64_t failed = 0;
  uint64_t plan_cost = 0;
  Timer warm;
  for (size_t i = 0; i < n || warm.ElapsedMs() < kWarmupMs; ++i) {
    double ms = 0;
    Kept kept;
    const bool ok = RunChecked(*eng, qs, i % n, &ms, i < n ? &kept : nullptr);
    if (i >= n) continue;
    if (!ok) ++failed;
    plan_cost +=
        TrueCost(eng->graph(), qs.parsed[qs.distinct_of[i]], kept.plan);
  }
  malloc_trim(0);

  Timer wall;
  for (size_t i = 0; i < n || wall.ElapsedMs() < args.seconds * 1e3; ++i) {
    double ms = 0;
    if (!RunChecked(*eng, qs, i % n, &ms)) ++failed;
    lat.Add(i % n, ms);
    ++attempted;
  }
  const double rss = RssMb();
  const uint64_t timed = lat.count();
  std::vector<double> per_query = lat.fastest();
  double pass_ms = 0;
  for (double ms : per_query) pass_ms += ms;
  std::sort(per_query.begin(), per_query.end());

  Metrics m;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("qps", n / (pass_ms / 1e3), "1/s");
  m.Add("latency_p50_ms", Percentile(per_query, 0.50), "ms");
  m.Add("latency_p99_ms", Percentile(per_query, 0.99), "ms");
  m.Add("rss_mb", rss, "MB");
  m.Add("plan_cost_rows", static_cast<double>(plan_cost), "rows");

  const double error_rate = static_cast<double>(failed) / attempted;
  std::string rounds;
  for (double s : setup_s) rounds += (rounds.empty() ? "" : ", ") + Fmt(s);
  std::printf("detail {\"workload\": \"%s\", \"seed\": %llu, \"queries\": %zu, "
              "\"distinct_queries\": %zu, \"timed_queries\": %llu, "
              "\"passes\": %llu, \"queries_beyond_p99\": %zu, "
              "\"mean_qps\": %.6g, "
              "\"error_rate\": {\"value\": %.6g, \"unit\": \"ratio\"}, "
              "\"setup_rounds_s\": [%s]}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), n,
              qs.parsed.size(), static_cast<unsigned long long>(timed),
              static_cast<unsigned long long>(lat.passes()), n / 100,
              timed / (lat.busy_ms() / 1e3), error_rate, rounds.c_str());
  std::fprintf(stderr, "%s: %llu queries checked\n", w.name.c_str(),
               static_cast<unsigned long long>(attempted));
  m.PrintTable();
  std::fprintf(stderr, "  %-34s %16.6g %s\n", "error_rate", error_rate,
               "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

struct SetupLayers {
  std::map<std::string, std::vector<double>> ms;  // per layer, per round
  rdf::Graph graph;                               // from the last round
};

SetupLayers TraceSetup(const std::string& data, util::ThreadPool& pool,
                       Tracer& tracer) {
  SetupLayers s;
  for (int round = 0; round < kTracedSetupRounds; ++round) {
    rdf::Graph g;
    malloc_trim(0);
    tracer.set_query(round);
    const size_t first = tracer.size();
    const int32_t root = tracer.Begin("setup");
    auto layer = [&](const char* name, auto&& fn) {
      ScopedSpan span(tracer, name);
      Timer t;
      fn();
      s.ms[name].push_back(t.ElapsedMs());
    };
    layer("rdf.parse", [&] {
      Status st = rdf::LoadNTriplesFile(data, &g);
      if (!st.ok()) Die("load: " + st.ToString());
    });
    layer("rdf.finalize", [&] { g.Finalize(&pool); });
    stats::GlobalStats gs;
    layer("stats.global", [&] { gs = stats::GlobalStats::Compute(g, &pool); });
    shacl::ShapesGraph shapes;
    layer("shacl.generate",
          [&] { shapes = Check(shacl::GenerateShapes(g), "shapes"); });
    layer("stats.annotate", [&] {
      Check(stats::AnnotateShapes(g, &shapes, &pool), "annotate");
    });
    layer("stats.cs_build",
          [&] { Check(baselines::CharSetIndex::Build(g), "cs"); });
    tracer.End(root);
    tracer.Fold(first);
    s.graph = std::move(g);
  }
  return s;
}

/// Execution and estimation profile over the distinct replayed queries.
struct Profile {
  uint64_t queries = 0;
  std::vector<double> qerrors;  // per join step, sorted
  double ss_err = 0;            // mean |log10(estimated / true plan cost)|
  double gs_err = 0;            // the same for global-statistics plans
  uint64_t gs_capped = 0;       // GS plans cut off at kGsRowCap
  uint64_t steps_inlj = 0, steps_merge = 0, steps_hash = 0;
  double join_ms = 0, select_ms = 0, inlj_ms = 0;  // sums over queries
  double full_join_ms = 0, full_select_ms = 0;     // SELECT without LIMIT
  double count_gap_ms = 0, ask_gap_ms = 0;         // sums over COUNT / ASK
  uint64_t counts = 0, asks = 0;
};

/// Times the execution of every kept query three ways — count-only
/// exec::ExecuteBgp, the engine's path, and the engine's path with every
/// step forced to INLJ — keeping the minimum of kProfileReps interleaved
/// repetitions, and measures estimation quality against true step
/// cardinalities.
Profile ProfileQueries(const engine::QueryEngine& eng, const Replay& replay,
                       const std::vector<std::optional<ReplayResult>>& kept) {
  const rdf::Graph& g = eng.graph();
  card::CardinalityEstimator gs_est(eng.global_stats(), nullptr, g.dict(),
                                    card::StatsMode::kGlobal);
  Profile p;
  for (const std::optional<ReplayResult>& k : kept) {
    if (!k || k->plan.order.empty()) continue;
    const ReplayResult& r = *k;
    std::vector<uint64_t> truth;
    const uint64_t cost = TrueCost(g, r.query, r.plan, nullptr, &truth);
    for (size_t s = 0; s < truth.size() && s < r.plan.step_estimates.size();
         ++s) {
      p.qerrors.push_back(obs::QError(r.plan.step_estimates[s],
                                      static_cast<double>(truth[s])));
    }
    p.ss_err += std::fabs(std::log10(std::max(1.0, r.plan.total_cost) /
                                     std::max<double>(1, cost)));
    bool capped = false;
    const opt::Plan gs_plan = opt::PlanJoinOrder(r.bgp, gs_est);
    const uint64_t gs_cost = TrueCost(g, r.query, gs_plan, &capped);
    p.gs_capped += capped;
    p.gs_err += std::fabs(std::log10(std::max(1.0, gs_plan.total_cost) /
                                     std::max<double>(1, gs_cost)));
    for (const phys::PhysicalStep& s : r.phys.steps) {
      p.steps_inlj += s.op == phys::OpKind::kInlj;
      p.steps_merge += s.op == phys::OpKind::kMerge;
      p.steps_hash += s.op == phys::OpKind::kHash;
    }

    phys::PhysicalPlan inlj_plan = r.phys;
    phys::ForceInlj(&inlj_plan, "forced INLJ baseline");
    double join = 1e300, select = 1e300, inlj = 1e300;
    auto best = [](double& acc, auto&& fn) {
      Timer t;
      fn();
      acc = std::min(acc, t.ElapsedMs());
    };
    for (int rep = 0; rep < kProfileReps; ++rep) {
      for (int part = 0; part < 3; ++part) {
        switch ((part + rep) % 3) {
          case 0:
            best(join, [&] {
              Check(exec::ExecuteBgp(g, r.bgp, r.plan.order), "join");
            });
            break;
          case 1:
            best(select, [&] {
              Check(replay.Execute(r, r.phys, nullptr), "select");
            });
            break;
          default:
            best(inlj, [&] {
              Check(replay.Execute(r, inlj_plan, nullptr), "inlj");
            });
        }
      }
    }
    ++p.queries;
    p.join_ms += join;
    p.select_ms += select;
    p.inlj_ms += inlj;
    if (r.query.is_ask) {
      p.ask_gap_ms += select - join;
      ++p.asks;
    } else if (r.query.count_aggregate) {
      p.count_gap_ms += select - join;
      ++p.counts;
    } else if (!r.query.limit) {
      p.full_join_ms += join;
      p.full_select_ms += select;
    }
  }
  std::sort(p.qerrors.begin(), p.qerrors.end());
  return p;
}

int RunTraced(const Args& args, const Workload& w, util::ThreadPool& pool,
              const std::string& data, const Host& host) {
  Tracer tracer;
  SetupLayers setup = TraceSetup(data, pool, tracer);
  const engine::QueryEngine eng = Check(
      engine::QueryEngine::Open(std::move(setup.graph),
                                EngineOptionsFor(w, &pool)),
      "open");
  const QuerySet qs = PrepareQueries(w, args.seed, eng);
  const size_t n = qs.texts.size();

  // Traced pass: every query runs on the engine (untraced) and through the
  // replay, alternating which goes first; both answers are checked.
  Replay replay(eng);
  std::vector<std::optional<ReplayResult>> kept(qs.parsed.size());
  uint64_t attempted = 0, failed = 0, mismatches = 0, plan_mismatches = 0;
  uint64_t empty = 0;
  uint64_t planned = 0, join_estimates = 0, cartesian = 0;
  uint64_t probes = 0, scanned = 0, materialized = 0, results = 0;
  uint64_t peak_bytes = 0;
  double engine_ms = 0, replay_ms = 0, layers_us = 0;
  Timer wall;
  for (size_t i = 0; i < n || wall.ElapsedMs() < args.seconds * 1e3; ++i) {
    const size_t at = i % n;
    const size_t d = qs.distinct_of[at];
    Kept er;
    Result<ReplayResult> rr = Status::Internal("not run");
    double e_ms = 0, r_ms = 0, children_us = 0;
    bool engine_ok = false;
    auto run_engine = [&] { engine_ok = RunChecked(eng, qs, at, &e_ms, &er); };
    auto run_replay = [&] {
      tracer.set_query(static_cast<uint32_t>(kTracedSetupRounds + i));
      const size_t first = tracer.size();
      Timer t;
      const int32_t root = tracer.Begin("query");
      rr = replay.Run(qs.texts[at], tracer);
      tracer.End(root);
      r_ms = t.ElapsedMs();
      children_us = tracer.Fold(first);
    };
    if (i % 2 == 0) {
      run_engine();
      run_replay();
    } else {
      run_replay();
      run_engine();
    }
    ++attempted;
    if (!engine_ok) ++failed;
    engine_ms += e_ms;
    replay_ms += r_ms;
    layers_us += children_us;
    if (!rr.ok()) {
      ++mismatches;
      continue;
    }
    ReplayResult& r = *rr;
    Answer replay_answer = r.answer;
    if (er.digest != Digest(qs.parsed[d], r.answer) ||
        !Matches(qs.parsed[d], qs.expected[d], replay_answer)) {
      ++mismatches;
    }
    if (er.plan.order != r.plan.order ||
        er.phys.Summary() != r.phys.Summary()) {
      ++plan_mismatches;
    }
    empty += r.provably_empty;
    if (!r.cache_hit && !r.provably_empty) {
      ++planned;
      join_estimates += r.planner.join_estimates;
      cartesian += r.planner.cartesian_steps;
    }
    probes += r.resources.index_probes;
    scanned += r.resources.rows_scanned;
    materialized += r.resources.rows_materialized;
    peak_bytes = std::max(peak_bytes, r.resources.peak_bytes);
    results += r.answer.kind == Answer::Kind::kRows    ? r.answer.rows.size()
               : r.answer.kind == Answer::Kind::kCount ? r.answer.count
                                                       : r.answer.ask;
    if (i < n && d < kProfileCap && !kept[d]) kept[d] = std::move(r);
  }

  const Profile prof = ProfileQueries(eng, replay, kept);

  // Self-test: a deliberately corrupted oracle digest must register as a
  // wrong answer.
  uint64_t corrupt_failed = 0, corrupt_attempted = 0;
  {
    QuerySet bad = qs;
    const size_t d = bad.distinct_of[0];
    bad.expected[d].digest ^= 1;
    bad.expected[d].rows += bad.expected[d].subset;
    for (size_t i = 0; i < std::min<size_t>(n, 64); ++i) {
      double ms = 0;
      corrupt_failed += !RunChecked(eng, bad, i, &ms);
      ++corrupt_attempted;
    }
  }

  const std::string trace_path = args.out + "/trace-" + w.name + "-" +
                                 std::to_string(args.seed) + ".json";
  Status st = tracer.WriteChromeTrace(trace_path);
  if (!st.ok()) Die(st.ToString());

  auto self = [&](const char* name) {
    auto it = tracer.self_us().find(name);
    return it == tracer.self_us().end() ? 0.0 : it->second;
  };
  const double exec_us = self("exec.run");
  double frontend_us = 0;
  for (const char* name :
       {"sparql.parse", "sparql.encode", "sparql.classify",
        "cache.canonicalize", "cache.lookup", "cache.store", "analysis.check",
        "analysis.lint", "card.estimate", "opt.plan", "phys.plan"}) {
    frontend_us += self(name);
  }
  const double na = static_cast<double>(attempted);
  const cache::PlanCache::StatsSnapshot cs =
      eng.plan_cache() != nullptr ? eng.plan_cache()->stats()
                                  : cache::PlanCache::StatsSnapshot{};
  const double annotate_ms = Median(setup.ms["stats.annotate"]);

  Metrics m;
  m.Add("rdf.parse_ms", Median(setup.ms["rdf.parse"]), "ms");
  m.Add("rdf.finalize_ms", Median(setup.ms["rdf.finalize"]), "ms");
  m.Add("stats.global_ms", Median(setup.ms["stats.global"]), "ms");
  m.Add("shacl.generate_ms", Median(setup.ms["shacl.generate"]), "ms");
  m.Add("stats.annotate_ms", annotate_ms, "ms");
  m.Add("stats.cs_build_ms", Median(setup.ms["stats.cs_build"]), "ms");
  m.Add("stats.annotator_speedup_vs_cs",
        Median(setup.ms["stats.cs_build"]) / annotate_ms, "ratio");
  m.Add("sparql.parse_us", self("sparql.parse") / na, "us");
  m.Add("sparql.encode_us", self("sparql.encode") / na, "us");
  m.Add("cache.canonicalize_us", self("cache.canonicalize") / na, "us");
  m.Add("cache.hit_rate", cs.hit_rate, "ratio");
  m.Add("cache.evictions", static_cast<double>(cs.evictions), "count");
  m.Add("analysis.check_us",
        (self("analysis.check") + self("analysis.lint")) / na, "us");
  m.Add("analysis.empty_share", empty / na, "ratio");
  m.Add("engine.lifecycle_us", (engine_ms * 1e3 - layers_us) / na, "us");
  m.Add("card.estimate_us", self("card.estimate") / na, "us");
  m.Add("opt.plan_us", self("opt.plan") / na, "us");
  m.Add("phys.plan_us", self("phys.plan") / na, "us");
  m.Add("card.qerror_p50", Percentile(prof.qerrors, 0.50), "ratio");
  m.Add("card.qerror_p95", Percentile(prof.qerrors, 0.95), "ratio");
  const double nq = std::max<double>(prof.queries, 1);
  m.Add("card.cost_log10_err.SS", prof.ss_err / nq, "log10");
  m.Add("card.cost_log10_err.GS", prof.gs_err / nq, "log10");
  m.Add("card.gs_plans_capped", static_cast<double>(prof.gs_capped), "count");
  m.Add("opt.join_estimates", planned ? double(join_estimates) / planned : 0,
        "count");
  m.Add("opt.cartesian_steps", planned ? double(cartesian) / planned : 0,
        "count");
  m.Add("phys.steps.inlj", static_cast<double>(prof.steps_inlj), "count");
  m.Add("phys.steps.merge", static_cast<double>(prof.steps_merge), "count");
  m.Add("phys.steps.hash", static_cast<double>(prof.steps_hash), "count");
  m.Add("phys.auto_over_inlj",
        prof.inlj_ms > 0 ? prof.select_ms / prof.inlj_ms : 0, "ratio");
  m.Add("exec.join_us", prof.join_ms * 1e3 / nq, "us");
  m.Add("exec.select_us", prof.select_ms * 1e3 / nq, "us");
  m.Add("exec.materialize_share",
        prof.full_select_ms > 0 ? 1 - prof.full_join_ms / prof.full_select_ms
                                : 0,
        "ratio");
  m.Add("exec.count_gap_us",
        prof.counts ? prof.count_gap_ms * 1e3 / prof.counts : 0, "us");
  m.Add("exec.ask_gap_us", prof.asks ? prof.ask_gap_ms * 1e3 / prof.asks : 0,
        "us");
  m.Add("exec.run_us", exec_us / na, "us");
  m.Add("exec.index_probes", probes / na, "count");
  m.Add("exec.rows_scanned", scanned / na, "count");
  m.Add("exec.scanned_per_result",
        static_cast<double>(scanned) / std::max<uint64_t>(results, 1),
        "ratio");
  m.Add("exec.rows_materialized", materialized / na, "count");
  m.Add("exec.peak_bytes", static_cast<double>(peak_bytes), "bytes");
  m.Add("trace.exec_share", exec_us / (engine_ms * 1e3), "ratio");
  m.Add("trace.frontend_share", frontend_us / (engine_ms * 1e3), "ratio");
  m.Add("trace.untraced_qps", na / (engine_ms / 1e3), "1/s");
  m.Add("trace.traced_qps", na / (replay_ms / 1e3), "1/s");
  m.Add("trace.overhead_ratio", replay_ms / engine_ms, "ratio");
  m.Add("trace.spans", static_cast<double>(tracer.total_spans()), "count");
  m.Add("selftest.replay_mismatches", static_cast<double>(mismatches),
        "count");
  m.Add("selftest.plan_mismatches", static_cast<double>(plan_mismatches),
        "count");
  m.Add("selftest.corrupt_error_rate",
        static_cast<double>(corrupt_failed) / corrupt_attempted, "ratio");
  m.Add("host.spin_ms", host.spin_ms, "ms");
  m.Add("host.effective_parallelism", host.effective_parallelism, "ratio");

  const bool correct = failed == 0 && mismatches == 0 &&
                       plan_mismatches == 0 && corrupt_failed > 0;
  std::printf("detail {\"workload\": \"%s\", \"seed\": %llu, \"trace\": "
              "\"%s\", \"traced_queries\": %llu, \"profiled\": %llu}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              trace_path.c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(prof.queries));
  m.PrintTable();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace shapestats::shapebench

int main(int argc, char** argv) {
  using namespace shapestats::shapebench;
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(args.workload);
  const Host host = MeasureHost();
  // Preprocessing pool: at most two threads, so set-up time depends little
  // on how many cores a shared host happens to leave free.
  const unsigned threads = std::min(host.nproc, 2u);
  shapestats::util::ThreadPool pool(threads, "shapebench");
  std::printf("host %s\n", HostJson(host, threads).c_str());

  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) Die("cannot create " + args.out + ": " + ec.message());
  const std::string data = args.out + "/" + w.name + "-" +
                           std::to_string(args.seed) + ".nt";
  Check(WriteDataset(w, args.seed, data), "write dataset");
  const int rc = args.trace ? RunTraced(args, w, pool, data, host)
                            : RunTimed(args, w, pool, data);
  std::filesystem::remove(data, ec);
  return rc;
}
