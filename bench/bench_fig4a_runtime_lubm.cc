// Reproduces Figure 4a: query runtime on LUBM for the plans proposed by
// SS, GS, Jena, GDB, CS and SumRDF, each executed with shuffled
// repetitions on the same engine (the paper executes all plans in Jena
// TDB), plus the paper's "best plan in 75% of cases" summary.
#include <cstdio>

#include "bench_figures.h"
#include "bench_telemetry.h"

using namespace shapestats;

int main() {
  bench::BenchTelemetry telemetry("fig4a_runtime_lubm");
  std::printf("=== Figure 4a: query runtime in LUBM ===\n");
  bench::Dataset ds = bench::BuildLubm();
  bench::PrintRuntimeFigure(ds, workload::LubmQueries());

  std::printf("\n=== Batched execution: LUBM workload throughput ===\n");
  engine::QueryEngine eng = bench::OpenLubmEngine();
  engine::EngineOptions cache_on;
  cache_on.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
  bench::PrintBatchThroughput(eng, bench::OpenLubmEngine(10, cache_on),
                              workload::LubmQueries());
  return 0;
}
