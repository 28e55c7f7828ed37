// Micro-benchmark of the physical join operators (src/phys) on five
// two-pattern shapes:
//
//   small x large      — about a thousand left rows (full professors)
//                        joined into a large pattern: merge gallops to
//                        each key's group instead of stepping through the
//                        whole run.
//   large x large sorted   — the left rows arrive sorted by the join
//                        variable (it leads the canonical row order), so
//                        the merge join streams with no sort.
//   large x large unsorted — the join variable does not lead the row
//                        order; INLJ pays one index probe per left row,
//                        while merge radix-sorts the left keys once.
//   many keys          — the right side is a whole predicate run with about
//                        one row per distinct key (every person's e-mail
//                        address), so the merge finds a group per left key.
//   sparse keys        — the left keys (full professors) hit a small share
//                        of that long e-mail run, so the merge gallops over
//                        the gaps instead of stepping through them.
//
// Every (shape, mode) run digests the full SELECT table; any divergence
// across operators is a correctness bug and aborts the benchmark. Writes
// BENCH_joins.json (digests + result counts exact, timings ratio-gated by
// tools/bench_diff in CI).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_telemetry.h"
#include "datagen/lubm.h"
#include "exec/executor.h"
#include "exec/select_executor.h"
#include "opt/plan.h"
#include "phys/phys_executor.h"
#include "phys/physical_plan.h"
#include "phys/planner.h"
#include "rdf/graph.h"
#include "sparql/encoded_bgp.h"
#include "sparql/parser.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace shapestats;

namespace {

uint64_t Fnv1a(uint64_t v, uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

uint64_t TableDigest(const exec::ResultTable& table) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv1a(table.var_names.size(), h);
  h = Fnv1a(table.rows.size(), h);
  for (const auto& row : table.rows) {
    for (rdf::TermId t : row) h = Fnv1a(t, h);
  }
  return h;
}

struct ShapeResult {
  uint64_t digest = 0;
  uint64_t rows = 0;
  double best_ms = 0;
};

// One (shape, mode) measurement: `reps` runs, best wall time, plus the
// result digest for the cross-operator equality check.
ShapeResult RunMode(const rdf::Graph& graph, const sparql::ParsedQuery& query,
                    const sparql::EncodedBgp& bgp, const opt::Plan& plan,
                    phys::JoinMode mode, int reps) {
  phys::PlannerOptions popts;
  popts.mode = mode;
  phys::PhysicalPlan pplan = phys::PlanPhysical(bgp, plan, graph, popts);
  ShapeResult out;
  out.best_ms = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    auto table = phys::ExecuteSelectPhysical(graph, query, bgp, pplan);
    double ms = timer.ElapsedMs();
    if (!table.ok()) {
      std::fprintf(stderr, "execution failed (%s): %s\n",
                   phys::JoinModeName(mode), table.status().ToString().c_str());
      std::abort();
    }
    if (ms < out.best_ms) out.best_ms = ms;
    out.digest = TableDigest(*table);
    out.rows = table->rows.size();
  }
  return out;
}

struct Shape {
  const char* key;    // telemetry key fragment
  const char* label;  // table row label
  std::string body;   // WHERE clause, executed in textual order
};

}  // namespace

int main() {
  bench::BenchTelemetry telemetry("joins");
  std::printf("=== Physical join operators: INLJ vs merge ===\n\n");

  datagen::LubmOptions lubm;
  lubm.universities = 10;
  rdf::Graph graph = datagen::GenerateLubm(lubm);
  std::printf("LUBM-%u: %s triples\n\n", lubm.universities,
              WithCommas(graph.NumTriples()).c_str());

  // Patterns execute in textual order. takesCourse is the large relation;
  // its POS run makes the leading free variable the *course*, so joining
  // on ?c is the presorted case and joining on ?x the unsorted one.
  const std::vector<Shape> shapes = {
      {"small_large", "small x large",
       "?p a ub:FullProfessor . ?x ub:advisor ?p"},
      {"ll_sorted", "large x large sorted",
       "?x ub:takesCourse ?c . ?c a ub:Course"},
      {"ll_unsorted", "large x large unsorted",
       "?x ub:takesCourse ?c . ?x a ub:UndergraduateStudent"},
      {"many_keys", "many keys",
       "?x ub:takesCourse ?c . ?x ub:emailAddress ?e"},
      {"sparse_keys", "sparse keys",
       "?x a ub:FullProfessor . ?x ub:emailAddress ?e"},
  };
  const std::vector<phys::JoinMode> modes = {
      phys::JoinMode::kInlj, phys::JoinMode::kMerge, phys::JoinMode::kAuto};
  const int reps = 5;

  TablePrinter table(
      {"shape", "rows", "inlj (ms)", "merge (ms)", "auto (ms)", "auto picks"});
  double unsorted_inlj_ms = 0, unsorted_auto_ms = 0;

  for (const Shape& shape : shapes) {
    auto q = sparql::ParseQuery(
        "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
        "SELECT * WHERE { " +
        shape.body + " }");
    if (!q.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", q.status().ToString().c_str());
      return 1;
    }
    sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph.dict());

    // The join order is the micro-benchmark's controlled variable, so pin
    // it to textual order and hand the planner the *true* cardinalities —
    // operator choice is measured under perfect estimates.
    opt::Plan plan;
    plan.order = {0, 1};
    auto truth = exec::ExecuteBgp(graph, bgp, plan.order);
    if (!truth.ok()) {
      std::fprintf(stderr, "ground truth failed: %s\n",
                   truth.status().ToString().c_str());
      return 1;
    }
    for (uint64_t card : truth->step_cards) {
      plan.step_estimates.push_back(static_cast<double>(card));
    }
    plan.tp_estimates.resize(bgp.patterns.size());
    for (size_t i = 0; i < bgp.patterns.size(); ++i) {
      const sparql::EncodedPattern& tp = bgp.patterns[i];
      auto opt_id = [](const sparql::EncodedTerm& t) {
        return t.is_bound() ? rdf::OptId(t.id) : std::nullopt;
      };
      plan.tp_estimates[i].card = static_cast<double>(
          graph.CountMatches(opt_id(tp.s), opt_id(tp.p), opt_id(tp.o)));
    }
    plan.provider = "true";

    std::vector<std::string> row = {shape.label};
    uint64_t digest = 0, rows = 0;
    bool first = true;
    std::string auto_pick;
    for (phys::JoinMode mode : modes) {
      ShapeResult r = RunMode(graph, *q, bgp, plan, mode, reps);
      if (first) {
        digest = r.digest;
        rows = r.rows;
        row.push_back(WithCommas(rows));
        first = false;
      } else if (r.digest != digest || r.rows != rows) {
        std::fprintf(stderr,
                     "DIGEST DIVERGENCE on %s: %s produced %llu rows "
                     "(digest %016llx), expected %llu (%016llx)\n",
                     shape.key, phys::JoinModeName(mode),
                     static_cast<unsigned long long>(r.rows),
                     static_cast<unsigned long long>(r.digest),
                     static_cast<unsigned long long>(rows),
                     static_cast<unsigned long long>(digest));
        return 1;
      }
      row.push_back(CompactDouble(r.best_ms));
      const std::string key =
          std::string("joins.") + shape.key + "." + phys::JoinModeName(mode);
      telemetry.Timing(key + "_ms", r.best_ms);
      if (mode == phys::JoinMode::kAuto) {
        phys::PlannerOptions popts;
        popts.mode = mode;
        phys::PhysicalPlan pplan = phys::PlanPhysical(bgp, plan, graph, popts);
        auto_pick = phys::OpName(pplan.steps[1].op);
        if (std::string(shape.key) == "ll_unsorted") {
          unsorted_auto_ms = r.best_ms;
        }
      }
      if (mode == phys::JoinMode::kInlj &&
          std::string(shape.key) == "ll_unsorted") {
        unsorted_inlj_ms = r.best_ms;
      }
    }
    row.push_back(auto_pick);
    table.AddRow(row);
    telemetry.Digest(std::string("joins.") + shape.key + ".results", digest);
    telemetry.Counter(std::string("joins.") + shape.key + ".rows",
                      static_cast<double>(rows));
  }
  table.Print();

  const double speedup = unsorted_inlj_ms / std::max(unsorted_auto_ms, 1e-6);
  telemetry.Timing("joins.ll_unsorted.auto_speedup_vs_inlj", speedup);
  std::printf(
      "\nlarge x large unsorted: auto planner %.2fx vs forced INLJ "
      "(%.2f ms -> %.2f ms)\n",
      speedup, unsorted_inlj_ms, unsorted_auto_ms);
  std::printf(
      "All operator assignments produced byte-identical result tables.\n");
  return 0;
}
