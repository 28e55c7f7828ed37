// SPARQL-over-HTTP serving plane: the "millions of users" entry point of
// the engine, with observability as a first-class deliverable. A
// SparqlServer wraps one immutable QueryEngine behind an HttpServer and
// serves:
//
//   /sparql    GET ?query=... or POST (form / application/sparql-query):
//              parse + optimize + execute via QueryEngine::ExecuteBatch on
//              the shared thread pool, streaming SPARQL-1.1-JSON results.
//              Guarded by admission control: a concurrency cap, a bounded
//              wait queue, and load shedding with 503 beyond it.
//   /metrics   Prometheus text exposition of obs::MetricsRegistry::Global().
//   /healthz   liveness JSON (uptime, in-flight, queue depth).
//   /accuracy  live obs::AccuracyLedger q-error percentiles as JSON.
//   /explain   optimized plan dump without executing (debug).
//
// Introspection-plane routes (DESIGN.md §12):
//
//   /debug/queries            live + recently-completed queries from the
//                             engine's obs::QueryRegistry as JSON.
//   /debug/queries/<id>/cancel  POST: cooperative cancel; the executor
//                             observes the flag on its next work tick.
//   /debug/flightrecorder     newest-first ring of anomaly bundles.
//   /debug/build              compiler, flags, sanitizers, build timestamp.
//
// Every request is stamped with a process-unique request id that is
// threaded through the obs::EventLog (`http.request.start/finish`
// correlated with the `batch.*`/`query.*` events the request caused via
// both the request id and the batch id), a ChromeTracer span on the
// handling worker's timeline, and per-route latency / result-size
// histograms plus admission gauges in the MetricsRegistry. A slow request
// is captured by the engine's flight recorder (its `slow` trigger), which
// carries the request and batch ids, the query and its plan trace.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <string>

#include "engine/query_engine.h"
#include "server/http_server.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace shapestats::server {

/// Concurrency cap + bounded wait queue + load shedding for the /sparql
/// route. Thread-safe. Admitted callers must Release() exactly once.
class AdmissionController {
 public:
  struct Options {
    /// Requests executing concurrently beyond this wait in the queue.
    uint64_t max_inflight = 8;
    /// Requests waiting beyond this are shed immediately (503).
    uint64_t queue_limit = 32;
    /// Queued requests that cannot start within this window are shed.
    double max_queue_wait_ms = 2000;
  };

  enum class Outcome { kAdmitted, kShed };

  explicit AdmissionController(Options options);

  /// Blocks until an execution slot is free (bounded by queue_limit /
  /// max_queue_wait_ms). kShed means the caller must answer 503.
  Outcome Admit();
  /// Frees the slot of an admitted request.
  void Release();

  int64_t inflight() const;
  int64_t queued() const;
  uint64_t admitted_total() const { return admitted_.load(std::memory_order_relaxed); }
  uint64_t shed_total() const { return shed_.load(std::memory_order_relaxed); }

  const Options& options() const { return options_; }

 private:
  const Options options_;
  mutable util::Mutex mu_;
  std::condition_variable_any cv_;  // signalled with mu_ held
  int64_t inflight_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  int64_t queued_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
};

struct SparqlServerOptions {
  HttpServer::Options http;
  AdmissionController::Options admission;
  /// Result rows rendered per response; beyond this the JSON is truncated
  /// and flagged. 0 = unlimited.
  uint64_t max_response_rows = 10000;
  /// Collect a per-request obs::QueryTrace. Feeds the live AccuracyLedger
  /// (exposed at /accuracy) and the flight-recorder bundles' plan trace;
  /// costs one detailed estimate pass per request.
  bool collect_traces = true;
};

class SparqlServer {
 public:
  /// The engine must outlive the server and is shared by all requests
  /// (queries only read the finalized graph and statistics).
  SparqlServer(const engine::QueryEngine* engine, SparqlServerOptions options = {});
  ~SparqlServer();

  SparqlServer(const SparqlServer&) = delete;
  SparqlServer& operator=(const SparqlServer&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  /// Exposed for tests: occupy/release admission slots deterministically.
  AdmissionController& admission() { return admission_; }
  const SparqlServerOptions& options() const { return options_; }

 private:
  HttpResponse HandleSparql(const HttpRequest& req, uint64_t request_id);
  HttpResponse HandleExplain(const HttpRequest& req);
  HttpResponse HandleMetrics(const HttpRequest& req);
  HttpResponse HandleHealthz(const HttpRequest& req);
  HttpResponse HandleAccuracy(const HttpRequest& req);
  HttpResponse HandleDebugQueries(const HttpRequest& req);
  HttpResponse HandleDebugCancel(const HttpRequest& req);
  HttpResponse HandleFlightRecorder(const HttpRequest& req);
  HttpResponse HandleDebugBuild(const HttpRequest& req);

  /// Registers `path` wrapped with the common per-request instrumentation:
  /// request id allocation, http.request.* events, Chrome span, per-route
  /// latency/result-size histograms and status counters. `prefix` variants
  /// match every path beginning with the string (longest prefix wins).
  void Route(const std::string& path,
             std::function<HttpResponse(const HttpRequest&, uint64_t request_id)> fn,
             bool prefix = false);

  const engine::QueryEngine* engine_;
  SparqlServerOptions options_;
  AdmissionController admission_;
  HttpServer http_;
  double start_ms_ = 0;  // process-clock timestamp of Start()
};

}  // namespace shapestats::server
