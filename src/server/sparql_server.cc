#include "server/sparql_server.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "obs/build_info.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/process_clock.h"
#include "rdf/dictionary.h"
#include "util/timer.h"

namespace shapestats::server {

namespace {

// Process-unique request ids; 0 is reserved for "no request".
std::atomic<uint64_t> g_next_request_id{1};

std::string JsonStr(std::string_view s) {
  // Built via append: gcc 12's -Wrestrict fires a false positive on
  // operator+(const char*, std::string&&) in Release builds.
  std::string out = "\"";
  out += obs::JsonEscape(s);
  out += "\"";
  return out;
}

std::string JsonError(const std::string& message) {
  return "{\"error\":" + JsonStr(message) + "}\n";
}

/// One solution term in SPARQL 1.1 Query Results JSON form.
std::string TermToJson(rdf::TermView term) {
  switch (term.kind) {
    case rdf::TermKind::kIri:
      return "{\"type\":\"uri\",\"value\":" + JsonStr(term.lexical) + "}";
    case rdf::TermKind::kBlank:
      return "{\"type\":\"bnode\",\"value\":" + JsonStr(term.lexical) + "}";
    case rdf::TermKind::kLiteral: {
      std::string out = "{\"type\":\"literal\",\"value\":" + JsonStr(term.lexical);
      if (!term.datatype.empty()) out += ",\"datatype\":" + JsonStr(term.datatype);
      if (!term.lang.empty()) out += ",\"xml:lang\":" + JsonStr(term.lang);
      return out + "}";
    }
  }
  return "{}";
}

/// Renders a QueryResult as SPARQL 1.1 Query Results JSON. ASK queries get
/// the boolean form; COUNT(*) is rendered as a single integer binding. A
/// query answered from its static verdict alone carries "static_verdict".
std::string ResultToJson(const engine::QueryResult& result,
                         const rdf::TermDictionary& dict, uint64_t max_rows,
                         uint64_t* rows_rendered) {
  std::string tail;
  if (result.verdict != analysis::Satisfiability::kSatisfiable) {
    tail = ",\"static_verdict\":";
    tail += JsonStr(analysis::SatisfiabilityName(result.verdict));
  }
  tail += "}\n";
  if (result.ask.has_value()) {
    *rows_rendered = 1;
    return std::string("{\"head\":{},\"boolean\":") +
           (*result.ask ? "true" : "false") + tail;
  }
  if (result.count.has_value()) {
    *rows_rendered = 1;
    std::string out =
        "{\"head\":{\"vars\":[\"count\"]},\"results\":{\"bindings\":[{"
        "\"count\":{\"type\":\"literal\",\"value\":\"" +
        std::to_string(*result.count) +
        "\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}]}";
    return out + tail;
  }
  const exec::ResultTable& table = result.table;
  std::string out = "{\"head\":{\"vars\":[";
  for (size_t i = 0; i < table.var_names.size(); ++i) {
    if (i) out += ",";
    out += JsonStr(table.var_names[i]);
  }
  out += "]},\"results\":{\"bindings\":[";
  uint64_t rows = table.rows.size();
  bool truncated = max_rows != 0 && rows > max_rows;
  if (truncated) rows = max_rows;
  for (uint64_t r = 0; r < rows; ++r) {
    if (r) out += ",";
    out += "{";
    bool first = true;
    for (size_t c = 0; c < table.var_names.size() && c < table.rows[r].size(); ++c) {
      rdf::TermId id = table.rows[r][c];
      if (id == rdf::kInvalidTermId) continue;
      if (!first) out += ",";
      first = false;
      out += JsonStr(table.var_names[c]) + ":" + TermToJson(dict.term(id));
    }
    out += "}";
  }
  out += "]}";
  if (truncated) out += ",\"truncated\":true";
  out += tail;
  *rows_rendered = rows;
  return out;
}

int StatusCodeForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kUnsupported:
      return 400;
    case StatusCode::kAborted:  // a limit stopped it before it had an answer
      return 503;
    default:
      return 500;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionController::AdmissionController(Options options) : options_(options) {}

AdmissionController::Outcome AdmissionController::Admit() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Gauge* inflight_gauge = reg.GetGauge("server.requests_inflight");
  static obs::Gauge* queue_gauge = reg.GetGauge("server.queue_depth");
  static obs::Counter* sheds = reg.GetCounter("server.sheds");
  util::MutexLock lock(mu_);
  if (inflight_ < static_cast<int64_t>(options_.max_inflight)) {
    ++inflight_;
    inflight_gauge->Set(inflight_);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kAdmitted;
  }
  if (queued_ >= static_cast<int64_t>(options_.queue_limit)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    sheds->Add();
    return Outcome::kShed;
  }
  ++queued_;
  queue_gauge->Set(queued_);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(static_cast<int64_t>(
                      options_.max_queue_wait_ms * 1000));
  bool admitted = false;
  while (inflight_ >= static_cast<int64_t>(options_.max_inflight)) {
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout &&
        inflight_ >= static_cast<int64_t>(options_.max_inflight)) {
      break;
    }
  }
  if (inflight_ < static_cast<int64_t>(options_.max_inflight)) {
    ++inflight_;
    inflight_gauge->Set(inflight_);
    admitted = true;
  }
  --queued_;
  queue_gauge->Set(queued_);
  if (admitted) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kAdmitted;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  sheds->Add();
  return Outcome::kShed;
}

void AdmissionController::Release() {
  static obs::Gauge* inflight_gauge =
      obs::MetricsRegistry::Global().GetGauge("server.requests_inflight");
  util::MutexLock lock(mu_);
  --inflight_;
  inflight_gauge->Set(inflight_);
  cv_.notify_one();
}

int64_t AdmissionController::inflight() const {
  util::MutexLock lock(mu_);
  return inflight_;
}

int64_t AdmissionController::queued() const {
  util::MutexLock lock(mu_);
  return queued_;
}

// ---------------------------------------------------------------------------
// SparqlServer

SparqlServer::SparqlServer(const engine::QueryEngine* engine,
                           SparqlServerOptions options)
    : engine_(engine), options_(std::move(options)),
      admission_(options_.admission), http_(options_.http) {
  Route("/sparql", [this](const HttpRequest& req, uint64_t request_id) {
    return HandleSparql(req, request_id);
  });
  Route("/explain",
        [this](const HttpRequest& req, uint64_t) { return HandleExplain(req); });
  Route("/metrics",
        [this](const HttpRequest& req, uint64_t) { return HandleMetrics(req); });
  Route("/healthz",
        [this](const HttpRequest& req, uint64_t) { return HandleHealthz(req); });
  Route("/accuracy",
        [this](const HttpRequest& req, uint64_t) { return HandleAccuracy(req); });
  Route("/debug/queries", [this](const HttpRequest& req, uint64_t) {
    return HandleDebugQueries(req);
  });
  Route("/debug/queries/", [this](const HttpRequest& req, uint64_t) {
    return HandleDebugCancel(req);
  }, /*prefix=*/true);
  Route("/debug/flightrecorder", [this](const HttpRequest& req, uint64_t) {
    return HandleFlightRecorder(req);
  });
  Route("/debug/build", [this](const HttpRequest& req, uint64_t) {
    return HandleDebugBuild(req);
  });
}

SparqlServer::~SparqlServer() { Stop(); }

Status SparqlServer::Start() {
  start_ms_ = obs::MonotonicMs();
  RETURN_NOT_OK(http_.Start());
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("server.start")
                 .Str("host", options_.http.host)
                 .Uint("port", http_.port())
                 .Uint("threads", options_.http.threads)
                 .Uint("max_inflight", admission_.options().max_inflight)
                 .Uint("queue_limit", admission_.options().queue_limit));
  }
  return Status::OK();
}

void SparqlServer::Stop() {
  if (!http_.running()) return;
  http_.Stop();
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("server.stop")
                 .Uint("port", port())
                 .Uint("connections", http_.connections_accepted()));
  }
}

void SparqlServer::Route(
    const std::string& path,
    std::function<HttpResponse(const HttpRequest&, uint64_t request_id)> fn,
    bool prefix) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* requests_total = reg.GetCounter("server.http.requests");
  obs::Counter* route_requests = reg.GetCounter("server.http.requests." + path);
  obs::Histogram* latency = reg.GetHistogram("server.latency_ms." + path);
  obs::Histogram* response_bytes = reg.GetHistogram("server.response_bytes." + path);
  HttpServer::Handler handler = [this, path, fn = std::move(fn), requests_total,
                                 route_requests, latency, response_bytes](
                                    const HttpRequest& req) {
    uint64_t request_id = g_next_request_id.fetch_add(1, std::memory_order_relaxed);
    requests_total->Add();
    route_requests->Add();
    obs::EventLog& log = obs::EventLog::Global();
    if (log.active()) {
      log.Emit(obs::Event("http.request.start")
                   .Uint("request_id", request_id)
                   .Str("route", path)
                   .Str("method", req.method));
    }
    obs::TraceSpan span("server", "http:" + path);
    span.Arg("request_id", std::to_string(request_id));
    Timer timer;
    HttpResponse resp = fn(req, request_id);
    double ms = timer.ElapsedMs();
    span.Arg("status", std::to_string(resp.status));
    latency->Observe(ms);
    response_bytes->Observe(static_cast<double>(resp.body.size()));
    obs::MetricsRegistry::Global().Add("server.http.status." +
                                       std::to_string(resp.status));
    resp.extra_headers.emplace_back("X-Request-Id", std::to_string(request_id));
    if (log.active()) {
      log.Emit(obs::Event("http.request.finish")
                   .Uint("request_id", request_id)
                   .Str("route", path)
                   .Uint("status", static_cast<uint64_t>(resp.status))
                   .Uint("bytes", resp.body.size())
                   .Num("ms", ms));
    }
    return resp;
  };
  if (prefix) {
    http_.HandlePrefix(path, std::move(handler));
  } else {
    http_.Handle(path, std::move(handler));
  }
}

HttpResponse SparqlServer::HandleSparql(const HttpRequest& req,
                                        uint64_t request_id) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* queries_ok = reg.GetCounter("server.sparql.ok");
  static obs::Counter* queries_failed = reg.GetCounter("server.sparql.failed");
  static obs::Counter* query_timeouts = reg.GetCounter("server.sparql.timeouts");
  static obs::Histogram* rows_hist = reg.GetHistogram("server.result_rows./sparql");
  static obs::Counter* static_empty =
      reg.GetCounter("server.sparql.static_empty");

  std::string query = req.Param("query");
  if (query.empty() &&
      req.Header("content-type").find("application/sparql-query") !=
          std::string::npos) {
    query = req.body;
  }
  if (query.empty()) {
    return {400, "application/json",
            JsonError("missing 'query' parameter (GET ?query=..., form POST, "
                      "or application/sparql-query body)"),
            {}};
  }

  if (admission_.Admit() == AdmissionController::Outcome::kShed) {
    obs::EventLog& log = obs::EventLog::Global();
    if (log.active()) {
      log.Emit(obs::Event("http.request.shed")
                   .Uint("request_id", request_id)
                   .Uint("inflight", static_cast<uint64_t>(admission_.inflight()))
                   .Uint("queued", static_cast<uint64_t>(admission_.queued())));
    }
    // A shed is an anomaly worth a flight-recorder bundle: the engine never
    // sees the query, so the server assembles a minimal one (query text,
    // admission state, build info) itself.
    if (obs::FlightRecorder* fr = engine_->flight_recorder(); fr != nullptr) {
      std::string bundle =
          "{\"trigger\":\"shed\",\"request_id\":" + std::to_string(request_id) +
          ",\"query\":" + JsonStr(query) +
          ",\"admission\":{\"inflight\":" +
          std::to_string(admission_.inflight()) +
          ",\"queued\":" + std::to_string(admission_.queued()) +
          ",\"shed_total\":" + std::to_string(admission_.shed_total()) +
          ",\"max_inflight\":" +
          std::to_string(admission_.options().max_inflight) +
          ",\"queue_limit\":" + std::to_string(admission_.options().queue_limit) +
          "},\"build\":" + obs::BuildInfoJson() + "}";
      fr->Record("shed", std::move(bundle));
    }
    HttpResponse resp{503, "application/json",
                      JsonError("overloaded: concurrency cap and admission "
                                "queue are full, retry later"),
                      {}};
    resp.extra_headers.emplace_back("Retry-After", "1");
    return resp;
  }

  Timer timer;
  engine::BatchOptions bopts;
  bopts.collect_traces = options_.collect_traces;
  bopts.request_id = request_id;
  engine::BatchResult batch = engine_->ExecuteBatch({query}, bopts);
  admission_.Release();
  double exec_ms = timer.ElapsedMs();

  HttpResponse resp;
  uint64_t result_rows = 0;
  bool timed_out = false;
  const Result<engine::QueryResult>& slot = batch.results[0];
  if (!slot.ok()) {
    queries_failed->Add();
    resp = {StatusCodeForError(slot.status()), "application/json",
            JsonError(slot.status().ToString()), {}};
    // A truncated ASK has no answer to send: the error says why, and the
    // header marks it as a limit hit like any truncated result.
    if (slot.status().code() == StatusCode::kAborted) {
      timed_out = true;
      query_timeouts->Add();
      resp.extra_headers.emplace_back("X-Timed-Out", "true");
    }
  } else {
    queries_ok->Add();
    timed_out = slot->table.timed_out;
    if (timed_out) query_timeouts->Add();
    std::string body = ResultToJson(*slot, engine_->graph().dict(),
                                    options_.max_response_rows, &result_rows);
    rows_hist->Observe(static_cast<double>(result_rows));
    resp = {200, "application/sparql-results+json", std::move(body), {}};
    if (timed_out) resp.extra_headers.emplace_back("X-Timed-Out", "true");
    // The verdict the engine answered a provably-empty query under.
    if (slot->verdict != analysis::Satisfiability::kSatisfiable) {
      static_empty->Add();
      resp.extra_headers.emplace_back(
          "X-Static-Verdict", analysis::SatisfiabilityName(slot->verdict));
    }
  }
  resp.extra_headers.emplace_back("X-Batch-Id", std::to_string(batch.batch_id));

  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    obs::Event ev("http.sparql");
    ev.Uint("request_id", request_id)
        .Uint("batch_id", batch.batch_id)
        .Bool("ok", slot.ok())
        .Num("exec_ms", exec_ms);
    if (slot.ok()) ev.Uint("results", result_rows);
    if (slot.ok() || timed_out) ev.Bool("timed_out", timed_out);
    log.Emit(std::move(ev));
  }

  return resp;
}

HttpResponse SparqlServer::HandleExplain(const HttpRequest& req) {
  std::string query = req.Param("query");
  if (query.empty() &&
      req.Header("content-type").find("application/sparql-query") !=
          std::string::npos) {
    query = req.body;
  }
  if (query.empty()) {
    return {400, "application/json", JsonError("missing 'query' parameter"), {}};
  }
  Result<std::string> plan = engine_->Explain(query);
  if (!plan.ok()) {
    return {StatusCodeForError(plan.status()), "application/json",
            JsonError(plan.status().ToString()), {}};
  }
  return {200, "text/plain; charset=utf-8", *plan, {}};
}

HttpResponse SparqlServer::HandleMetrics(const HttpRequest&) {
  return {200, "text/plain; version=0.0.4; charset=utf-8",
          obs::MetricsRegistry::Global().ToPrometheus(), {}};
}

HttpResponse SparqlServer::HandleHealthz(const HttpRequest&) {
  std::string body =
      "{\"status\":\"ok\",\"uptime_ms\":" +
      std::to_string(obs::MonotonicMs() - start_ms_) +
      ",\"inflight\":" + std::to_string(admission_.inflight()) +
      ",\"queued\":" + std::to_string(admission_.queued()) +
      ",\"admitted\":" + std::to_string(admission_.admitted_total()) +
      ",\"shed\":" + std::to_string(admission_.shed_total()) + "}\n";
  return {200, "application/json", std::move(body), {}};
}

HttpResponse SparqlServer::HandleAccuracy(const HttpRequest&) {
  return {200, "application/json", engine_->accuracy_ledger().ToJson() + "\n", {}};
}

HttpResponse SparqlServer::HandleDebugQueries(const HttpRequest&) {
  obs::QueryRegistry* reg = engine_->query_registry();
  if (reg == nullptr) {
    return {404, "application/json",
            JsonError("query registry disabled"), {}};
  }
  return {200, "application/json", reg->ToJson() + "\n", {}};
}

HttpResponse SparqlServer::HandleDebugCancel(const HttpRequest& req) {
  obs::QueryRegistry* reg = engine_->query_registry();
  if (reg == nullptr) {
    return {404, "application/json",
            JsonError("query registry disabled"), {}};
  }
  constexpr std::string_view kPrefix = "/debug/queries/";
  std::string_view rest = std::string_view(req.path).substr(kPrefix.size());
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos || rest.substr(slash) != "/cancel") {
    return {404, "application/json",
            JsonError("unknown debug path; expected /debug/queries/<id>/cancel"),
            {}};
  }
  std::string_view id_str = rest.substr(0, slash);
  uint64_t id = 0;
  auto [ptr, ec] =
      std::from_chars(id_str.data(), id_str.data() + id_str.size(), id);
  if (ec != std::errc() || ptr != id_str.data() + id_str.size() || id == 0) {
    return {400, "application/json", JsonError("invalid query id"), {}};
  }
  if (req.method != "POST") {
    return {405, "application/json", JsonError("cancel requires POST"), {}};
  }
  bool cancelled = reg->Cancel(id);
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("http.debug.cancel")
                 .Uint("query_id", id)
                 .Bool("ok", cancelled));
  }
  std::string body = std::string("{\"cancelled\":") +
                     (cancelled ? "true" : "false") +
                     ",\"id\":" + std::to_string(id) + "}\n";
  return {cancelled ? 200 : 404, "application/json", std::move(body), {}};
}

HttpResponse SparqlServer::HandleFlightRecorder(const HttpRequest& req) {
  obs::FlightRecorder* fr = engine_->flight_recorder();
  // The global ring exists (empty) even when no trigger is configured, so
  // the route never 404s; an unconfigured recorder reports zero bundles.
  if (fr == nullptr) fr = &obs::FlightRecorder::Global();
  size_t max = 16;
  if (std::string p = req.Param("max"); !p.empty()) {
    max = static_cast<size_t>(std::strtoull(p.c_str(), nullptr, 10));
  }
  return {200, "application/json", fr->ToJson(max) + "\n", {}};
}

HttpResponse SparqlServer::HandleDebugBuild(const HttpRequest&) {
  return {200, "application/json", obs::BuildInfoJson() + "\n", {}};
}

}  // namespace shapestats::server
