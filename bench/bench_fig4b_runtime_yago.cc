// Reproduces Figure 4b: query runtime on YAGO-4 (13 handcrafted C/F/S
// queries) for SS, GS, Jena, GDB, CS and SumRDF.
#include <cstdio>

#include "bench_figures.h"
#include "bench_telemetry.h"

using namespace shapestats;

int main() {
  bench::BenchTelemetry telemetry("fig4b_runtime_yago");
  std::printf("=== Figure 4b: query runtime in YAGO-4 ===\n");
  bench::Dataset ds = bench::BuildYago();
  bench::PrintRuntimeFigure(ds, workload::YagoQueries());

  std::printf("\n=== Batched execution: YAGO workload throughput ===\n");
  engine::QueryEngine eng = bench::OpenYagoEngine();
  engine::EngineOptions cache_on;
  cache_on.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
  bench::PrintBatchThroughput(eng, bench::OpenYagoEngine(60000, cache_on),
                              workload::YagoQueries());
  return 0;
}
