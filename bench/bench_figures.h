// Shared printers for the Figure-4 reproductions: query runtime (4a/4b),
// q-error (4c/4d), and estimated-vs-true plan cost (4e/4f). Each prints
// one row per query — the same series the paper plots.
#pragma once

#include "bench_common.h"

namespace shapestats::bench {

/// Figure 4a/4b: mean±stddev runtime per query for all six approaches,
/// plus the paper's summary statistics (how often each approach finds the
/// best plan; average overhead w.r.t. the best plan otherwise).
void PrintRuntimeFigure(const Dataset& ds,
                        const std::vector<workload::BenchQuery>& queries,
                        const RunOptions& options = {});

/// Figure 4c/4d: q-error of the final result cardinality estimate per
/// query for SS, GS, GDB, CS and SumRDF, plus the bucketed summary the
/// paper reports (how many queries fall under q-error 15 / 250 / above).
void PrintQErrorFigure(const Dataset& ds,
                       const std::vector<workload::BenchQuery>& queries,
                       const RunOptions& options = {});

/// Figure 4e/4f: estimated vs true plan cost for SS and GS per query.
void PrintCostFigure(const Dataset& ds,
                     const std::vector<workload::BenchQuery>& queries,
                     const RunOptions& options = {});

/// Batched-execution companion to Figure 4a/4b: runs the whole workload
/// through QueryEngine::ExecuteBatch on a 1-thread pool (sequential
/// latency) and on the shared pool (parallel throughput), verifies the
/// batch output is identical, and prints wall time, queries/s and the
/// speedup. `reps` batches per mode; the fastest is reported. `cached` is
/// an engine over the same data with the plan cache on: the batch runs on
/// it twice (filling the cache, then hitting it), and the process exits 1
/// unless every answer equals the cache-off one.
void PrintBatchThroughput(const engine::QueryEngine& eng,
                          const engine::QueryEngine& cached,
                          const std::vector<workload::BenchQuery>& queries,
                          int reps = 3);

}  // namespace shapestats::bench
