// Interactive SPARQL shell over the QueryEngine facade — demonstrates the
// end-user surface of the library: load data, get shape-statistics
// optimization transparently, run SELECT queries with FILTER / DISTINCT /
// ORDER BY / LIMIT, and inspect plans with .explain.
//
// Usage:
//   sparql_shell [data.nt]      # default: a generated LUBM dataset
//
// Commands:
//   .help                show help
//   .stats               dataset and statistics summary
//   .shapes [class]      list node shapes (or one shape's statistics)
//   .explain <query>     show the plan and operators the query would run
//                        (ASK/LIMIT pipelined on INLJ), without executing
//   .analyze <query>     EXPLAIN ANALYZE: execute the query as a query
//                        runs (.running lists it) and show per-step
//                        estimated vs true cardinality, q-error, timings;
//                        ASK/LIMIT step counts stop early, and a provably
//                        empty query is checked on the INLJ oracle
//   .lint <query>        static analysis only: unknown predicates/classes,
//                        guaranteed-empty patterns, forced Cartesian products
//   .check <query>       shape-aware satisfiability verdict (satisfiable /
//                        empty / empty-by-stats) plus inferred class
//                        constraints and lint findings, without executing
//   .audit               audit global + shape statistics consistency
//   .cache               plan-cache size / hit-rate / evictions plus the
//                        per-template learned correction factors
//   .metrics             dump the process-wide metrics registry
//   .metrics reset       zero every counter and histogram
//   .events [n]          tail the last n structured EventLog entries
//                        (default 20) as JSONL
//   .accuracy            q-error percentiles of every traced query so far,
//                        keyed by optimizer / shape / stats source / join
//   .running             live queries from the introspection registry plus
//                        the most recently completed ones (id, phase, step
//                        progress, rows, resources)
//   .top [n]             hottest plan-cache templates by cumulative
//                        execution time (registry aggregates joined with
//                        plan-cache / feedback state; default 10)
//   .trace <file>        write the last executed query's trace JSON to file
//   .quit                exit
//   anything else        executed as a SPARQL query (may span lines;
//                        terminate with an empty line)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/stats_audit.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sparql/parser.h"
#include "util/string_util.h"

using namespace shapestats;

namespace {

void PrintStats(const engine::QueryEngine& eng) {
  const auto& gs = eng.global_stats();
  std::printf("triples: %s   subjects: %s   objects: %s   classes: %s\n",
              WithCommas(gs.num_triples).c_str(),
              WithCommas(gs.num_distinct_subjects).c_str(),
              WithCommas(gs.num_distinct_objects).c_str(),
              WithCommas(gs.num_distinct_classes).c_str());
  std::printf("optimizer: %s   shapes: %zu node / %zu property\n",
              engine::OptimizerName(eng.options().optimizer),
              eng.shapes().NumNodeShapes(), eng.shapes().NumPropertyShapes());
}

void PrintShapes(const engine::QueryEngine& eng, const std::string& filter) {
  for (const shacl::NodeShape& ns : eng.shapes().shapes()) {
    if (!filter.empty() && ns.target_class.find(filter) == std::string::npos) {
      continue;
    }
    std::printf("%s  (sh:count %s)\n", ns.target_class.c_str(),
                WithCommas(ns.count.value_or(0)).c_str());
    if (!filter.empty()) {
      for (const shacl::PropertyShape& ps : ns.properties) {
        std::printf("    %-60s count %-9s distinct %-9s [%s..%s]\n",
                    ps.path.c_str(), WithCommas(ps.count.value_or(0)).c_str(),
                    WithCommas(ps.distinct_count.value_or(0)).c_str(),
                    std::to_string(ps.min_count.value_or(0)).c_str(),
                    std::to_string(ps.max_count.value_or(0)).c_str());
      }
    }
  }
}

// Reads a possibly multi-line query: keeps reading until the braces are
// balanced and at least one '}' has been seen, or an empty line.
std::string ReadQuery(const std::string& first_line) {
  std::string text = first_line;
  auto complete = [&text]() {
    int depth = 0;
    bool seen = false;
    for (char c : text) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        seen = true;
      }
    }
    return seen && depth <= 0;
  };
  std::string line;
  while (!complete() && std::getline(std::cin, line)) {
    if (Trim(line).empty()) break;
    text += "\n" + line;
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  // The shell keeps the plan cache on: `.cache` and `.top` show it.
  engine::EngineOptions eopts;
  eopts.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
  Result<engine::QueryEngine> opened = [&]() -> Result<engine::QueryEngine> {
    if (argc >= 2) {
      std::printf("loading %s ...\n", argv[1]);
      return engine::QueryEngine::FromNTriplesFile(argv[1], eopts);
    }
    std::printf("no data file given; generating a demo LUBM dataset\n");
    datagen::LubmOptions opts;
    opts.universities = 2;
    return engine::QueryEngine::Open(datagen::GenerateLubm(opts), eopts);
  }();
  if (!opened.ok()) {
    std::fprintf(stderr, "failed to open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  engine::QueryEngine eng = std::move(opened).value();
  // Retain events in the global ring so `.events` has something to tail
  // even without a SHAPESTATS_EVENT_LOG file sink.
  obs::EventLog::Global().SetEnabled(true);
  PrintStats(eng);
  std::printf("type .help for commands; SPARQL queries run directly\n");

  // Trace of the most recent executed/analyzed query, for `.trace <file>`.
  // Queries run with tracing on so `.accuracy` accumulates q-errors.
  obs::QueryTrace last_trace;

  std::string line;
  std::printf("sparql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(Trim(line));
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed.empty()) {
      std::printf("sparql> ");
      std::fflush(stdout);
      continue;
    }
    if (trimmed == ".help") {
      std::printf(
          ".stats | .shapes [class] | .explain <query> | .analyze <query> | "
          ".lint <query> | .check <query> | .audit | .cache | "
          ".metrics [reset] | .events [n] | .accuracy | .running | "
          ".top [n] | .trace <file> | .quit\n");
    } else if (trimmed == ".stats") {
      PrintStats(eng);
    } else if (trimmed == ".audit") {
      auto diags = analysis::StatsAuditor().AuditAll(
          eng.global_stats(), eng.shapes(), &eng.graph().dict());
      if (obs::EventLog::Global().active()) {
        obs::EventLog::Global().Emit(
            obs::Event("audit").Uint("findings", diags.size()));
      }
      if (diags.empty()) {
        std::printf("statistics audit clean (global + %zu node shapes)\n",
                    eng.shapes().NumNodeShapes());
      } else {
        std::fputs(analysis::ToText(diags).c_str(), stdout);
      }
    } else if (StartsWith(trimmed, ".lint")) {
      std::string text = ReadQuery(trimmed.substr(5));
      auto diags = eng.Lint(text);
      if (!diags.ok()) {
        std::printf("error: %s\n", diags.status().ToString().c_str());
      } else if (diags->empty()) {
        std::printf("no findings\n");
      } else {
        std::fputs(analysis::ToText(*diags).c_str(), stdout);
      }
    } else if (StartsWith(trimmed, ".check")) {
      std::string text = ReadQuery(trimmed.substr(6));
      auto check = eng.StaticCheck(text);
      if (!check.ok()) {
        std::printf("error: %s\n", check.status().ToString().c_str());
      } else {
        std::printf("verdict: %s%s%s%s\n",
                    analysis::SatisfiabilityName(check->verdict),
                    check->rule.empty() ? "" : " (",
                    check->rule.c_str(), check->rule.empty() ? "" : ")");
        if (!check->inferred.empty()) {
          std::printf("%zu inferred class anchor(s) feed the optimizer\n",
                      check->inferred.size());
        }
        if (!check->diagnostics.empty()) {
          std::fputs(analysis::ToText(check->diagnostics).c_str(), stdout);
        }
      }
    } else if (trimmed == ".events" || StartsWith(trimmed, ".events ")) {
      size_t n = 20;
      std::string arg(Trim(trimmed.substr(7)));
      if (!arg.empty()) {
        char* end = nullptr;
        unsigned long parsed = std::strtoul(arg.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || parsed == 0) {
          std::printf("usage: .events [n]\n");
          std::printf("sparql> ");
          std::fflush(stdout);
          continue;
        }
        n = parsed;
      }
      obs::EventLog& log = obs::EventLog::Global();
      std::vector<obs::Event> events = log.Snapshot();
      size_t from = events.size() > n ? events.size() - n : 0;
      for (size_t i = from; i < events.size(); ++i) {
        std::printf("%s\n", events[i].ToJson().c_str());
      }
      std::printf("%zu of %llu emitted events shown (%llu dropped from ring)\n",
                  events.size() - from,
                  static_cast<unsigned long long>(log.total_emitted()),
                  static_cast<unsigned long long>(log.dropped()));
    } else if (trimmed == ".cache") {
      cache::PlanCache* pc = eng.plan_cache();
      cache::PlanCache::StatsSnapshot s = pc->stats();
      std::printf(
          "entries: %zu/%zu   hits: %llu   misses: %llu   hit-rate: %.1f%%\n",
          s.size, s.capacity, static_cast<unsigned long long>(s.hits),
          static_cast<unsigned long long>(s.misses), 100.0 * s.hit_rate);
      std::printf(
          "evictions: %llu   invalidations: %llu   bypasses: %llu   "
          "corrections published: %llu\n",
          static_cast<unsigned long long>(s.evictions),
          static_cast<unsigned long long>(s.invalidations),
          static_cast<unsigned long long>(s.bypasses),
          static_cast<unsigned long long>(s.corrections));
      std::fputs(pc->feedback().ToTable().c_str(), stdout);
    } else if (trimmed == ".metrics") {
      std::fputs(obs::MetricsRegistry::Global().ToText().c_str(), stdout);
    } else if (trimmed == ".metrics reset") {
      obs::MetricsRegistry::Global().ResetAll();
      std::printf("metrics reset\n");
    } else if (trimmed == ".accuracy") {
      std::fputs(eng.accuracy_ledger().ToTable().c_str(), stdout);
    } else if (trimmed == ".running") {
      obs::QueryRegistry* reg = eng.query_registry();
      std::vector<obs::QueryRecord> live = reg->Inflight();
      if (live.empty()) {
        std::printf("no queries in flight\n");
      }
      for (const obs::QueryRecord& q : live) {
        std::string text = q.query.substr(0, 60);
        if (q.query.size() > 60) text += "...";
        std::printf("#%llu [%s] step %llu/%llu  rows %s  %.1f ms  %s\n",
                    static_cast<unsigned long long>(q.id), q.phase.c_str(),
                    static_cast<unsigned long long>(q.steps_completed),
                    static_cast<unsigned long long>(q.steps_total),
                    WithCommas(q.rows_produced).c_str(), q.elapsed_ms,
                    text.c_str());
        std::printf("    %s\n", q.resources.ToText().c_str());
      }
      std::vector<obs::QueryRecord> done = reg->Completed(5);
      if (!done.empty()) std::printf("recently completed:\n");
      for (const obs::QueryRecord& q : done) {
        std::string text = q.query.substr(0, 60);
        if (q.query.size() > 60) text += "...";
        std::printf("#%llu [%s] %s results  %.1f ms  %s\n",
                    static_cast<unsigned long long>(q.id), q.outcome.c_str(),
                    WithCommas(q.num_results).c_str(), q.elapsed_ms,
                    text.c_str());
      }
      std::printf("%llu registered, %llu cancel requests\n",
                  static_cast<unsigned long long>(reg->registered_total()),
                  static_cast<unsigned long long>(reg->cancelled_total()));
    } else if (trimmed == ".top" || StartsWith(trimmed, ".top ")) {
      size_t n = 10;
      std::string arg(Trim(trimmed.substr(4)));
      if (!arg.empty()) {
        char* end = nullptr;
        unsigned long parsed = std::strtoul(arg.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || parsed == 0) {
          std::printf("usage: .top [n]\n");
          std::printf("sparql> ");
          std::fflush(stdout);
          continue;
        }
        n = parsed;
      }
      obs::QueryRegistry* reg = eng.query_registry();
      cache::PlanCache* pc = eng.plan_cache();
      cache::PlanCache::StatsSnapshot s = pc->stats();
      std::printf("plan cache: %zu/%zu entries, hit-rate %.1f%% "
                  "(%llu hits / %llu misses)\n",
                  s.size, s.capacity, 100.0 * s.hit_rate,
                  static_cast<unsigned long long>(s.hits),
                  static_cast<unsigned long long>(s.misses));
      std::vector<obs::TemplateStats> tops = reg->TopTemplates(n);
      if (tops.empty()) {
        std::printf("no completed queries yet\n");
      } else {
        std::printf("%-22s %8s %12s %10s %12s %7s\n", "template", "execs",
                    "total ms", "avg ms", "results", "corr-v");
        for (const obs::TemplateStats& t : tops) {
          // Join with the feedback store: "t:<hex>" parses back to the
          // template hash whose correction version counts publications.
          uint64_t fb_version = 0;
          if (t.cache_template.rfind("t:", 0) == 0) {
            uint64_t hash =
                std::strtoull(t.cache_template.c_str() + 2, nullptr, 16);
            fb_version = pc->feedback().Version(hash);
          }
          std::printf("%-22s %8llu %12.1f %10.2f %12s %7llu\n",
                      t.cache_template.c_str(),
                      static_cast<unsigned long long>(t.executions),
                      t.total_ms,
                      t.executions > 0 ? t.total_ms / t.executions : 0.0,
                      WithCommas(t.num_results).c_str(),
                      static_cast<unsigned long long>(fb_version));
        }
      }
    } else if (StartsWith(trimmed, ".trace")) {
      std::string path(Trim(trimmed.substr(6)));
      if (path.empty()) {
        std::printf("usage: .trace <file>\n");
      } else if (last_trace.query.empty()) {
        std::printf("no traced query yet — run a query or .analyze first\n");
      } else {
        std::ofstream out(path);
        if (!out) {
          std::printf("error: cannot open %s\n", path.c_str());
        } else {
          out << last_trace.ToJson() << "\n";
          std::printf("wrote trace of last query to %s\n", path.c_str());
        }
      }
    } else if (StartsWith(trimmed, ".shapes")) {
      PrintShapes(eng, std::string(Trim(trimmed.substr(7))));
    } else if (StartsWith(trimmed, ".analyze")) {
      std::string text = ReadQuery(trimmed.substr(8));
      auto analyzed = eng.ExplainAnalyze(text);
      if (analyzed.ok()) {
        std::fputs(analyzed->text.c_str(), stdout);
        last_trace = std::move(analyzed->trace);
      } else {
        std::printf("error: %s\n", analyzed.status().ToString().c_str());
      }
    } else if (StartsWith(trimmed, ".explain")) {
      std::string text = ReadQuery(trimmed.substr(8));
      auto plan = eng.Explain(text);
      if (plan.ok()) {
        std::fputs(plan->c_str(), stdout);
      } else {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      }
    } else {
      std::string text = ReadQuery(line);
      // Surface static-analysis warnings (guaranteed-empty patterns,
      // forced Cartesian products) before the results they explain.
      auto lint = eng.Lint(text);
      if (lint.ok() && !lint->empty()) {
        std::fputs(analysis::ToText(*lint).c_str(), stdout);
      }
      obs::QueryTrace trace;
      auto result = eng.Execute(text, &trace);
      if (result.ok()) last_trace = std::move(trace);
      if (result.ok()) {
        if (result->ask) {
          std::printf("%s (%.1f ms)\n", *result->ask ? "yes" : "no",
                      result->total_ms);
        } else if (result->count) {
          std::printf("count: %s (%.1f ms)\n", WithCommas(*result->count).c_str(),
                      result->total_ms);
        } else {
          std::fputs(result->table.ToString(eng.graph().dict()).c_str(), stdout);
          std::printf("%zu rows (%s matches) in %.1f ms (planning %.1f ms)%s\n",
                      result->table.rows.size(),
                      WithCommas(result->table.bgp_matches).c_str(),
                      result->total_ms, result->plan_ms,
                      result->table.timed_out ? " [TIMED OUT]" : "");
        }
      } else {
        std::printf("error: %s\n", result.status().ToString().c_str());
      }
    }
    std::printf("sparql> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
