// Shared infrastructure for the paper-reproduction benchmarks: dataset
// contexts (graph + all statistics artifacts + all estimators), the six
// evaluated approaches (SS, GS, Jena, GDB, CS, SumRDF), query runners with
// the paper's shuffled-repetition methodology, and the q-error metric.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/charsets/char_sets.h"
#include "baselines/heuristic/heuristic_planners.h"
#include "baselines/sumrdf/summary.h"
#include "card/estimator.h"
#include "engine/query_engine.h"
#include "opt/plan.h"
#include "rdf/graph.h"
#include "shacl/shapes.h"
#include "stats/global_stats.h"
#include "workload/queries.h"

namespace shapestats::bench {

/// A fully prepared dataset: the graph plus every statistics artifact the
/// evaluation needs. Mirrors the paper's preprocessing phase.
struct Dataset {
  std::string name;
  rdf::Graph graph;
  stats::GlobalStats gs;
  shacl::ShapesGraph shapes;  // annotated with statistics
  double annotate_ms = 0;     // Shapes Annotator wall time
  double shapes_plain_bytes = 0;     // Turtle size before annotation
  double shapes_extended_bytes = 0;  // Turtle size after annotation

  std::unique_ptr<baselines::CharSetIndex> cs;
  std::unique_ptr<baselines::SumRdfSummary> sumrdf;
  std::unique_ptr<card::CardinalityEstimator> gs_est;
  std::unique_ptr<card::CardinalityEstimator> ss_est;
  std::unique_ptr<baselines::GraphDbLikeProvider> gdb;
};

/// Builds the LUBM scale model with all preprocessing artifacts.
Dataset BuildLubm(uint32_t universities = 10);
/// WatDiv scale model (products is the scale knob).
Dataset BuildWatDiv(uint32_t products = 8000, const char* name = "WATDIV-S");
/// YAGO scale model.
Dataset BuildYago(uint32_t entities = 60000);

/// Opens a shape-statistics QueryEngine over a freshly generated graph of
/// the same scale model (a QueryEngine owns its graph, so the batch
/// throughput benches regenerate instead of stealing a Dataset's copy).
engine::QueryEngine OpenLubmEngine(uint32_t universities = 10,
                                   const engine::EngineOptions& options = {});
engine::QueryEngine OpenYagoEngine(uint32_t entities = 60000,
                                   const engine::EngineOptions& options = {});

/// The approaches of Figure 4.
enum class Approach { kSS, kGS, kJena, kGDB, kCS, kSumRDF };
const char* ApproachName(Approach a);
const std::vector<Approach>& AllApproaches();
/// Approaches with a cardinality model (Jena is heuristic-only and is
/// excluded from the q-error analysis, as in the paper).
const std::vector<Approach>& EstimatingApproaches();

/// Plans a (possibly shuffled) BGP with the given approach.
opt::Plan PlanFor(const Dataset& ds, Approach a, const sparql::EncodedBgp& bgp);

/// The provider behind an approach (nullptr for Jena).
const card::PlannerStatsProvider* ProviderFor(const Dataset& ds, Approach a);

struct QueryRun {
  double mean_ms = 0;
  double stddev_ms = 0;
  uint64_t num_results = 0;
  bool timed_out = false;
  double est_result_card = 0;   // provider estimate of |result|
  double est_plan_cost = 0;     // sum of estimated step cardinalities
  uint64_t true_plan_cost = 0;  // sum of true intermediate cardinalities
};

struct RunOptions {
  int reps = 5;               // paper: 10 shuffled executions
  uint64_t shuffle_seed = 99;
  double timeout_ms = 5000;   // paper: 10 minutes
  uint64_t max_rows = 100'000'000;
};

/// Runs one query with one approach: `reps` shuffled repetitions for the
/// runtime statistics plus one unshuffled run for plan cost and estimates.
/// When the SHAPESTATS_TRACE_DIR environment variable is set, the
/// unshuffled run additionally writes a per-query JSON trace artifact
/// (`trace_<dataset>_<approach>_<seq>.json`, QueryTrace schema) into that
/// directory, so every benchmark run leaves machine-readable evidence of
/// per-step estimates vs. ground truth.
QueryRun RunQuery(const Dataset& ds, Approach a, const std::string& text,
                  const RunOptions& options = {});

/// q-error (Section 7): max(max(1,e)/max(1,c), max(1,c)/max(1,e)).
double QError(double estimate, double truth);

/// Formats a duration as "12.3" (ms) or "TO" when timed out.
std::string FormatMs(const QueryRun& run);

}  // namespace shapestats::bench
