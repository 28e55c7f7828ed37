#include "bench_figures.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench_telemetry.h"
#include "obs/accuracy_ledger.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace shapestats::bench {

void PrintRuntimeFigure(const Dataset& ds,
                        const std::vector<workload::BenchQuery>& queries,
                        const RunOptions& options) {
  std::vector<std::string> header{"query"};
  for (Approach a : AllApproaches()) header.push_back(ApproachName(a));
  header.push_back("results");
  TablePrinter table(header);

  std::map<Approach, int> best_count;
  std::map<Approach, double> overhead_sum;
  std::map<Approach, int> overhead_n;
  int timeouts = 0;

  std::vector<std::map<Approach, QueryRun>> runs(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    std::vector<std::string> row{q.label};
    double best = std::numeric_limits<double>::infinity();
    uint64_t results = 0;
    for (Approach a : AllApproaches()) {
      QueryRun run = RunQuery(ds, a, q.text, options);
      runs[qi][a] = run;
      row.push_back(FormatMs(run));
      if (!run.timed_out) {
        best = std::min(best, run.mean_ms);
        results = run.num_results;
      } else {
        ++timeouts;
      }
    }
    for (Approach a : AllApproaches()) {
      const QueryRun& run = runs[qi][a];
      if (run.timed_out) continue;
      // "Best plan" = within 10% of the fastest plus a small absolute slack
      // (sub-millisecond runs are all noise).
      if (run.mean_ms <= best * 1.10 + 0.3) {
        best_count[a] += 1;
      } else {
        overhead_sum[a] += (run.mean_ms - best) / std::max(best, 0.5);
        overhead_n[a] += 1;
      }
    }
    row.push_back(WithCommas(results));
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nSummary (runtime in ms, %d shuffled reps each):\n", options.reps);
  for (Approach a : AllApproaches()) {
    double pct = 100.0 * best_count[a] / queries.size();
    double avg_overhead =
        overhead_n[a] ? 100.0 * overhead_sum[a] / overhead_n[a] : 0.0;
    std::printf("  %-7s best plan in %5.1f%% of queries; avg overhead otherwise "
                "%5.1f%%\n",
                ApproachName(a), pct, avg_overhead);
  }
  if (timeouts) std::printf("  (%d timeouts marked TO)\n", timeouts);

  if (BenchTelemetry* bt = BenchTelemetry::Current()) {
    for (Approach a : AllApproaches()) {
      std::string name = ApproachName(a);
      double total = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) total += runs[qi][a].mean_ms;
      bt->Timing("runtime." + name + ".total_ms", total);
      bt->Counter("runtime." + name + ".best_pct",
                  100.0 * best_count[a] / static_cast<double>(queries.size()));
    }
    bt->Counter("runtime.queries", static_cast<double>(queries.size()));
    bt->Counter("runtime.timeouts", timeouts);
  }
}

void PrintQErrorFigure(const Dataset& ds,
                       const std::vector<workload::BenchQuery>& queries,
                       const RunOptions& options) {
  std::vector<std::string> header{"query"};
  for (Approach a : EstimatingApproaches()) header.push_back(ApproachName(a));
  header.push_back("true card");
  TablePrinter table(header);

  RunOptions estimate_only = options;
  estimate_only.reps = 0;  // estimates come from the unshuffled run
  std::map<Approach, std::vector<double>> qerrors;
  for (const auto& q : queries) {
    std::vector<std::string> row{q.label};
    uint64_t truth = 0;
    for (Approach a : EstimatingApproaches()) {
      QueryRun run = RunQuery(ds, a, q.text, estimate_only);
      truth = run.num_results;
      double qe = QError(run.est_result_card, static_cast<double>(run.num_results));
      qerrors[a].push_back(qe);
      row.push_back(CompactDouble(qe));
    }
    row.push_back(WithCommas(truth));
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nq-error buckets (paper reports <15, <250, >=250):\n");
  for (Approach a : EstimatingApproaches()) {
    int lt15 = 0, lt250 = 0, ge250 = 0;
    for (double qe : qerrors[a]) {
      if (qe < 15) ++lt15;
      else if (qe < 250) ++lt250;
      else ++ge250;
    }
    std::printf("  %-7s %2d queries < 15, %2d queries < 250, %2d queries >= 250\n",
                ApproachName(a), lt15, lt250, ge250);
  }

  if (BenchTelemetry* bt = BenchTelemetry::Current()) {
    // q-errors are estimates vs. exact executed cardinalities — fully
    // deterministic, so they go into the strictly-compared counters.
    for (Approach a : EstimatingApproaches()) {
      std::string name = ApproachName(a);
      std::vector<double> qe = qerrors[a];
      bt->Counter("qerror." + name + ".p50", obs::ExactPercentile(qe, 50));
      bt->Counter("qerror." + name + ".p95", obs::ExactPercentile(qe, 95));
      bt->Counter("qerror." + name + ".max", obs::ExactPercentile(qe, 100));
    }
    bt->Counter("qerror.queries", static_cast<double>(queries.size()));
  }
}

void PrintCostFigure(const Dataset& ds,
                     const std::vector<workload::BenchQuery>& queries,
                     const RunOptions& options) {
  TablePrinter table({"query", "SS est cost", "SS true cost", "SS ratio",
                      "GS est cost", "GS true cost", "GS ratio"});
  RunOptions estimate_only = options;
  estimate_only.reps = 0;  // plan costs come from the unshuffled run
  double ss_log_sum = 0, gs_log_sum = 0;
  int n = 0;
  for (const auto& q : queries) {
    QueryRun ss = RunQuery(ds, Approach::kSS, q.text, estimate_only);
    QueryRun gs = RunQuery(ds, Approach::kGS, q.text, estimate_only);
    auto ratio = [](const QueryRun& r) {
      return std::max(1.0, r.est_plan_cost) /
             std::max<double>(1.0, static_cast<double>(r.true_plan_cost));
    };
    double ss_ratio = ratio(ss);
    double gs_ratio = ratio(gs);
    ss_log_sum += std::fabs(std::log10(ss_ratio));
    gs_log_sum += std::fabs(std::log10(gs_ratio));
    ++n;
    table.AddRow({q.label, WithCommas(static_cast<uint64_t>(ss.est_plan_cost)),
                  WithCommas(ss.true_plan_cost), CompactDouble(ss_ratio),
                  WithCommas(static_cast<uint64_t>(gs.est_plan_cost)),
                  WithCommas(gs.true_plan_cost), CompactDouble(gs_ratio)});
  }
  table.Print();
  std::printf(
      "\nMean |log10(est/true)| — lower means the estimated cost tracks the\n"
      "actual cost better: SS %.2f vs GS %.2f\n",
      ss_log_sum / n, gs_log_sum / n);

  if (BenchTelemetry* bt = BenchTelemetry::Current()) {
    bt->Counter("cost.SS.mean_abs_log10_ratio", ss_log_sum / n);
    bt->Counter("cost.GS.mean_abs_log10_ratio", gs_log_sum / n);
  }
}

namespace {

// Order-sensitive digest of one query's outcome (status, cardinalities and
// every row), for checking batch output against the sequential run.
uint64_t ResultDigest(const Result<engine::QueryResult>& r) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  mix(static_cast<uint64_t>(r.status().code()));
  if (!r.ok()) return h;
  mix(r->ask.has_value() ? (*r->ask ? 2 : 1) : 0);
  mix(r->count.value_or(0));
  mix(r->table.rows.size());
  for (const auto& row : r->table.rows) {
    for (rdf::TermId id : row) mix(id);
  }
  return h;
}

}  // namespace

void PrintBatchThroughput(const engine::QueryEngine& eng,
                          const engine::QueryEngine& cached,
                          const std::vector<workload::BenchQuery>& queries,
                          int reps) {
  std::vector<std::string> texts;
  texts.reserve(queries.size());
  for (const auto& q : queries) texts.push_back(q.text);

  util::ThreadPool sequential(1);
  util::ThreadPool& parallel = util::ThreadPool::Shared();

  auto run = [&](const engine::QueryEngine& e, util::ThreadPool* pool,
                 int runs, double* best_ms, std::vector<uint64_t>* digests) {
    for (int rep = 0; rep < runs; ++rep) {
      engine::BatchOptions bopts;
      bopts.pool = pool;
      engine::BatchResult batch = e.ExecuteBatch(texts, bopts);
      *best_ms = std::min(*best_ms, batch.wall_ms);
      if (rep == 0) {
        for (const auto& r : batch.results) digests->push_back(ResultDigest(r));
      }
    }
  };
  double seq_ms = std::numeric_limits<double>::infinity();
  double par_ms = std::numeric_limits<double>::infinity();
  std::vector<uint64_t> seq_digests, par_digests;
  run(eng, &sequential, reps, &seq_ms, &seq_digests);
  run(eng, &parallel, reps, &par_ms, &par_digests);

  if (seq_digests != par_digests) {
    std::fprintf(stderr,
                 "FATAL: batched execution diverged from sequential results\n");
    std::abort();
  }
  // The plan cache must not change an answer, on a miss or on a hit.
  for (int pass = 0; pass < 2; ++pass) {
    double ms = std::numeric_limits<double>::infinity();
    std::vector<uint64_t> cached_digests;
    run(cached, &parallel, 1, &ms, &cached_digests);
    if (cached_digests != seq_digests) {
      std::fprintf(stderr,
                   "FATAL: batch with the plan cache on (pass %d) diverged "
                   "from the cache-off results\n",
                   pass + 1);
      std::exit(1);
    }
  }

  TablePrinter table({"mode", "threads", "wall (ms)", "queries/s", "speedup"});
  auto qps = [&](double ms) {
    return CompactDouble(1000.0 * static_cast<double>(texts.size()) /
                         std::max(ms, 0.001));
  };
  table.AddRow({"sequential batch", "1", CompactDouble(seq_ms), qps(seq_ms), "1x"});
  table.AddRow({"parallel batch", std::to_string(parallel.num_threads()),
                CompactDouble(par_ms), qps(par_ms),
                CompactDouble(seq_ms / std::max(par_ms, 0.001)) + "x"});
  table.Print();
  std::printf("  (batch results verified identical across modes and with "
              "the plan cache on; %d reps, best wall time shown)\n",
              reps);

  if (BenchTelemetry* bt = BenchTelemetry::Current()) {
    uint64_t digest = 1469598103934665603ull;
    for (uint64_t d : seq_digests) digest = (digest ^ d) * 1099511628211ull;
    bt->Digest("batch.results", digest);
    bt->Counter("batch.queries", static_cast<double>(texts.size()));
    bt->Timing("batch.sequential_ms", seq_ms);
    bt->Timing("batch.parallel_ms", par_ms);
  }
}

}  // namespace shapestats::bench
