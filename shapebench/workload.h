// Workloads of the shapestats benchmark: which seeded dataset each one
// loads, how its engine is configured, and the query list it runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query_engine.h"
#include "rdf/graph.h"
#include "util/status.h"

namespace shapestats::shapebench {

struct Workload {
  std::string name;
  bool yago = false;        // YAGO-style data; LUBM-10 otherwise
  bool plan_cache = false;  // EngineOptions::plan_cache pinned on / off
};

/// The benchmark's workloads: lubm-analytic, lubm-lookup, yago-hetero.
const std::vector<Workload>& Workloads();
/// Null when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);

/// Engine settings for a workload, every one pinned (no setting resolves
/// from the environment).
engine::EngineOptions EngineOptionsFor(const Workload& w,
                                       util::ThreadPool* pool);

/// Generates the workload's seeded graph and writes it as N-Triples.
/// Returns the number of triples written.
Result<uint64_t> WriteDataset(const Workload& w, uint64_t seed,
                              const std::string& path);

/// The workload's query list, in execution order. The paper's queries for
/// lubm-analytic and yago-hetero; for lubm-lookup a seeded stream whose
/// constants are drawn from `graph`.
std::vector<std::string> BuildQueries(const Workload& w, uint64_t seed,
                                      const rdf::Graph& graph);

}  // namespace shapestats::shapebench
