// SPARQL HTTP endpoint binary: loads a dataset (N-Triples file, or a
// generated demo LUBM dataset), opens a shape-statistics QueryEngine, and
// serves it over HTTP until SIGINT/SIGTERM.
//
// Usage:
//   sparql_server [data.nt] [options]
//     --port N            listen port (default 8585; 0 = ephemeral)
//     --host H            listen address (default 127.0.0.1)
//     --threads N         connection worker threads (default 8)
//     --max-inflight N    concurrent /sparql executions (default 8)
//     --queue-limit N     waiting requests beyond this are shed 503 (default 32)
//     --queue-wait-ms MS  max time a request may wait for a slot (default 2000)
//     --timeout-ms MS     per-query execution timeout (default 10000; 0 = none)
//     --plan-cache B      on|off: template plan cache + feedback-corrected
//                         estimates (default off)
//     --universities N    size of the generated demo dataset (default 2)
//
// Routes: /sparql /explain /metrics /healthz /accuracy (see DESIGN.md §8),
// plus the introspection plane /debug/queries, /debug/queries/<id>/cancel,
// /debug/flightrecorder, /debug/build (see DESIGN.md §12). Slow requests
// are captured by the flight recorder: set SHAPESTATS_FLIGHT_DIR and
// SHAPESTATS_FLIGHT_SLOW_MS to write each one as a `slow` bundle file.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "obs/event_log.h"
#include "server/sparql_server.h"

using namespace shapestats;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  const char* data_file = nullptr;
  server::SparqlServerOptions opts;
  opts.http.port = 8585;
  double timeout_ms = 10000;
  int universities = 2;
  engine::EngineOptions eopts;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sparql_server: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      opts.http.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      opts.http.host = next();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.http.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
      opts.admission.max_inflight = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--queue-limit") == 0) {
      opts.admission.queue_limit = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--queue-wait-ms") == 0) {
      opts.admission.max_queue_wait_ms = std::atof(next());
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      timeout_ms = std::atof(next());
    } else if (std::strcmp(argv[i], "--plan-cache") == 0) {
      const char* v = next();
      if (std::strcmp(v, "on") == 0) {
        eopts.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
      } else if (std::strcmp(v, "off") == 0) {
        eopts.plan_cache = engine::EngineOptions::PlanCacheMode::kOff;
      } else {
        std::fprintf(stderr, "sparql_server: --plan-cache wants on|off\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--universities") == 0) {
      universities = std::atoi(next());
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "sparql_server: unknown option %s\n", argv[i]);
      return 2;
    } else {
      data_file = argv[i];
    }
  }

  eopts.exec.timeout_ms = timeout_ms;
  Result<engine::QueryEngine> opened = [&]() -> Result<engine::QueryEngine> {
    if (data_file != nullptr) {
      std::printf("loading %s ...\n", data_file);
      return engine::QueryEngine::FromNTriplesFile(data_file, eopts);
    }
    std::printf("no data file given; generating a demo LUBM dataset "
                "(%d universities)\n", universities);
    datagen::LubmOptions lubm;
    lubm.universities = universities;
    return engine::QueryEngine::Open(datagen::GenerateLubm(lubm), eopts);
  }();
  if (!opened.ok()) {
    std::fprintf(stderr, "failed to open: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  engine::QueryEngine eng = std::move(opened).value();
  std::printf("engine ready: %s triples, optimizer %s, query timeout %.0f ms, "
              "plan cache %s\n",
              std::to_string(eng.graph().NumTriples()).c_str(),
              engine::OptimizerName(eng.options().optimizer), timeout_ms,
              eng.plan_cache() != nullptr ? "on" : "off");

  server::SparqlServer srv(&eng, opts);
  Status st = srv.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "failed to start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving on http://%s:%u  (/sparql /explain /metrics /healthz "
              "/accuracy /debug/queries /debug/flightrecorder /debug/build)\n",
              opts.http.host.c_str(), srv.port());
  std::printf("introspection: registry on, flight recorder %s\n",
              eng.flight_recorder() != nullptr ? "armed" : "off");
  std::printf("admission: max-inflight %llu, queue %llu\n",
              static_cast<unsigned long long>(opts.admission.max_inflight),
              static_cast<unsigned long long>(opts.admission.queue_limit));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  srv.Stop();
  return 0;
}
