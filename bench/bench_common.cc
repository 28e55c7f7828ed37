#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "analysis/stats_audit.h"
#include "datagen/lubm.h"
#include "datagen/watdiv.h"
#include "datagen/yago.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "opt/join_order.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/random.h"
#include "util/string_util.h"

namespace shapestats::bench {

namespace {

// Shared preprocessing: shapes generation + annotation + global stats +
// baseline artifacts + estimators.
void Prepare(Dataset* ds) {
  ds->gs = stats::GlobalStats::Compute(ds->graph);

  auto shapes = shacl::GenerateShapes(ds->graph);
  if (!shapes.ok()) {
    std::fprintf(stderr, "shape generation failed for %s: %s\n",
                 ds->name.c_str(), shapes.status().ToString().c_str());
    std::abort();
  }
  ds->shapes = std::move(shapes).value();
  ds->shapes_plain_bytes = shacl::WriteShapesTurtle(ds->shapes).size();
  auto report = stats::AnnotateShapes(ds->graph, &ds->shapes);
  ds->annotate_ms = report->elapsed_ms;
  ds->shapes_extended_bytes = shacl::WriteShapesTurtle(ds->shapes).size();

  // Fail fast on corrupt statistics: every estimate and plan downstream
  // depends on these invariants, so a benchmark run over a dataset that
  // fails the audit would measure garbage.
  auto audit = analysis::StatsAuditor().AuditAll(ds->gs, ds->shapes,
                                                 &ds->graph.dict());
  if (analysis::HasErrors(audit)) {
    std::fprintf(stderr, "statistics audit failed for %s:\n%s",
                 ds->name.c_str(), analysis::ToText(audit).c_str());
    std::abort();
  }

  auto cs = baselines::CharSetIndex::Build(ds->graph);
  ds->cs = std::make_unique<baselines::CharSetIndex>(std::move(cs).value());
  auto sumrdf = baselines::SumRdfSummary::Build(ds->graph);
  ds->sumrdf = std::make_unique<baselines::SumRdfSummary>(std::move(sumrdf).value());

  ds->gs_est = std::make_unique<card::CardinalityEstimator>(
      ds->gs, nullptr, ds->graph.dict(), card::StatsMode::kGlobal);
  ds->ss_est = std::make_unique<card::CardinalityEstimator>(
      ds->gs, &ds->shapes, ds->graph.dict(), card::StatsMode::kShape);
  ds->gdb = std::make_unique<baselines::GraphDbLikeProvider>(ds->gs,
                                                             ds->graph.dict());
}

}  // namespace

Dataset BuildLubm(uint32_t universities) {
  Dataset ds;
  ds.name = "LUBM";
  datagen::LubmOptions opts;
  opts.universities = universities;
  ds.graph = datagen::GenerateLubm(opts);
  Prepare(&ds);
  return ds;
}

Dataset BuildWatDiv(uint32_t products, const char* name) {
  Dataset ds;
  ds.name = name;
  datagen::WatDivOptions opts;
  opts.products = products;
  ds.graph = datagen::GenerateWatDiv(opts);
  Prepare(&ds);
  return ds;
}

Dataset BuildYago(uint32_t entities) {
  Dataset ds;
  ds.name = "YAGO";
  datagen::YagoOptions opts;
  opts.num_entities = entities;
  ds.graph = datagen::GenerateYago(opts);
  Prepare(&ds);
  return ds;
}

namespace {

engine::QueryEngine OpenEngine(rdf::Graph graph,
                               const engine::EngineOptions& options) {
  auto eng = engine::QueryEngine::Open(std::move(graph), options);
  if (!eng.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 eng.status().ToString().c_str());
    std::abort();
  }
  return std::move(eng).value();
}

}  // namespace

engine::QueryEngine OpenLubmEngine(uint32_t universities,
                                   const engine::EngineOptions& options) {
  datagen::LubmOptions opts;
  opts.universities = universities;
  return OpenEngine(datagen::GenerateLubm(opts), options);
}

engine::QueryEngine OpenYagoEngine(uint32_t entities,
                                   const engine::EngineOptions& options) {
  datagen::YagoOptions opts;
  opts.num_entities = entities;
  return OpenEngine(datagen::GenerateYago(opts), options);
}

const char* ApproachName(Approach a) {
  switch (a) {
    case Approach::kSS: return "SS";
    case Approach::kGS: return "GS";
    case Approach::kJena: return "Jena";
    case Approach::kGDB: return "GDB";
    case Approach::kCS: return "CS";
    case Approach::kSumRDF: return "SumRDF";
  }
  return "?";
}

const std::vector<Approach>& AllApproaches() {
  static const std::vector<Approach> all = {Approach::kSS,   Approach::kGS,
                                            Approach::kJena, Approach::kGDB,
                                            Approach::kCS,   Approach::kSumRDF};
  return all;
}

const std::vector<Approach>& EstimatingApproaches() {
  static const std::vector<Approach> all = {Approach::kSS, Approach::kGS,
                                            Approach::kGDB, Approach::kCS,
                                            Approach::kSumRDF};
  return all;
}

const card::PlannerStatsProvider* ProviderFor(const Dataset& ds, Approach a) {
  switch (a) {
    case Approach::kSS: return ds.ss_est.get();
    case Approach::kGS: return ds.gs_est.get();
    case Approach::kJena: return nullptr;
    case Approach::kGDB: return ds.gdb.get();
    case Approach::kCS: return ds.cs.get();
    case Approach::kSumRDF: return ds.sumrdf.get();
  }
  return nullptr;
}

opt::Plan PlanFor(const Dataset& ds, Approach a, const sparql::EncodedBgp& bgp) {
  if (a == Approach::kJena) {
    return baselines::PlanJenaLike(bgp, ds.gs.rdf_type_id);
  }
  return opt::PlanJoinOrder(bgp, *ProviderFor(ds, a));
}

QueryRun RunQuery(const Dataset& ds, Approach a, const std::string& text,
                  const RunOptions& options) {
  QueryRun run;
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query parse error: %s\n",
                 parsed.status().ToString().c_str());
    std::abort();
  }

  exec::ExecOptions eopts;
  eopts.timeout_ms = options.timeout_ms;
  eopts.max_intermediate_rows = options.max_rows;

  // Unshuffled run: estimates and plan cost. With SHAPESTATS_TRACE_DIR set,
  // also collects a full QueryTrace and writes it as a JSON artifact.
  {
    const char* trace_dir = std::getenv("SHAPESTATS_TRACE_DIR");
    obs::QueryTrace trace;
    auto bgp = sparql::EncodeBgp(*parsed, ds.graph.dict());
    opt::Plan plan = PlanFor(ds, a, bgp);
    run.est_plan_cost = plan.total_cost;
    const card::PlannerStatsProvider* provider = ProviderFor(ds, a);
    run.est_result_card =
        provider ? provider->EstimateResultCardinality(bgp)
                 : std::numeric_limits<double>::quiet_NaN();
    exec::ExecOptions traced_opts = eopts;
    if (trace_dir != nullptr) traced_opts.trace = &trace.exec;
    auto r = exec::ExecuteBgp(ds.graph, bgp, plan.order, traced_opts);
    run.num_results = r->num_results;
    run.true_plan_cost = r->TrueCost();
    run.timed_out = r->timed_out;
    if (trace_dir != nullptr) {
      trace.query = text;
      trace.optimizer = plan.provider;
      trace.est_total_cost = plan.total_cost;
      trace.true_total_cost = r->TrueCost();
      trace.num_results = r->num_results;
      trace.timed_out = r->timed_out;
      trace.total_ms = r->elapsed_ms;
      for (size_t k = 0; k < plan.order.size(); ++k) {
        obs::StepTrace step;
        step.step = static_cast<uint32_t>(k + 1);
        step.pattern = plan.order[k];
        step.pattern_text = parsed->patterns[plan.order[k]].ToString();
        step.source = ApproachName(a);
        if (plan.order[k] < plan.tp_estimates.size()) {
          step.tp_est = plan.tp_estimates[plan.order[k]].card;
        }
        step.est_card = k < plan.step_estimates.size() ? plan.step_estimates[k] : 0;
        step.true_card = r->step_cards[k];
        step.q_error = obs::QError(step.est_card, static_cast<double>(step.true_card));
        if (k < trace.exec.step_rows_scanned.size()) {
          step.rows_scanned = trace.exec.step_rows_scanned[k];
          step.index_probes = trace.exec.step_probes[k];
        }
        trace.steps.push_back(std::move(step));
      }
      static std::atomic<uint64_t> seq{0};
      std::string path = std::string(trace_dir) + "/trace_" + ds.name + "_" +
                         ApproachName(a) + "_" +
                         std::to_string(seq.fetch_add(1)) + ".json";
      std::ofstream out(path);
      if (out) out << trace.ToJson() << "\n";
    }
  }

  // Shuffled repetitions: runtime distribution (the paper shuffles the BGP
  // before each of the 10 executions because some optimizers are sensitive
  // to the textual order). reps == 0 skips this (estimate-only analyses).
  if (options.reps == 0) return run;
  Rng rng(options.shuffle_seed);
  std::vector<double> times;
  for (int rep = 0; rep < options.reps; ++rep) {
    sparql::ParsedQuery shuffled = *parsed;
    rng.Shuffle(shuffled.patterns);
    auto bgp = sparql::EncodeBgp(shuffled, ds.graph.dict());
    opt::Plan plan = PlanFor(ds, a, bgp);
    auto r = exec::ExecuteBgp(ds.graph, bgp, plan.order, eopts);
    if (r->timed_out) run.timed_out = true;
    times.push_back(r->elapsed_ms);
  }
  double sum = 0;
  for (double t : times) sum += t;
  run.mean_ms = sum / times.size();
  double var = 0;
  for (double t : times) var += (t - run.mean_ms) * (t - run.mean_ms);
  run.stddev_ms = times.size() > 1 ? std::sqrt(var / (times.size() - 1)) : 0;
  return run;
}

double QError(double estimate, double truth) { return obs::QError(estimate, truth); }

std::string FormatMs(const QueryRun& run) {
  if (run.timed_out) return "TO";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f±%.1f", run.mean_ms, run.stddev_ms);
  return buf;
}

}  // namespace shapestats::bench
