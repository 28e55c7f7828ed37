// Tests for src/server: the HTTP/1.1 protocol layer (pure parsing
// functions + socket server), the AdmissionController's cap / queue / shed
// semantics, and the SparqlServer serving plane end-to-end over real
// sockets — /sparql result rendering, /metrics Prometheus exposition,
// 503 load shedding, and EventLog request-id correlation between
// http.request.* and the batch.* events a request causes, under concurrent
// clients.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "server/http_server.h"
#include "server/sparql_server.h"

namespace shapestats {
namespace {

using server::AdmissionController;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;
using server::SparqlServer;
using server::SparqlServerOptions;

// --- minimal blocking HTTP client over POSIX sockets -----------------------

struct ClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // lowercased names
  std::string body;

  std::string Header(const std::string& name) const {
    for (const auto& [k, v] : headers) {
      if (k == name) return v;
    }
    return "";
  }
};

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 20;  // client-side backstop so a server bug fails, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void SendRaw(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

// Parses one response off `fd`, using Content-Length to frame the body (so
// it works on keep-alive connections). `carry` holds bytes read past the
// previous response.
ClientResponse ReadOneResponse(int fd, std::string* carry) {
  ClientResponse resp;
  std::string& buf = *carry;
  size_t head_end;
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed before response head";
      return resp;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  std::string head = buf.substr(0, head_end);
  size_t sp = head.find(' ');
  resp.status = std::atoi(head.c_str() + sp + 1);
  size_t pos = head.find("\r\n");
  size_t content_length = 0;
  while (pos != std::string::npos && pos + 2 < head.size()) {
    size_t eol = head.find("\r\n", pos + 2);
    std::string line = head.substr(pos + 2, (eol == std::string::npos ? head.size() : eol) - pos - 2);
    size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = line.substr(0, colon);
      for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(value.begin());
      if (key == "content-length") content_length = std::strtoull(value.c_str(), nullptr, 10);
      resp.headers.emplace_back(key, value);
    }
    pos = eol;
  }
  size_t body_start = head_end + 4;
  while (buf.size() < body_start + content_length) {
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed mid-body";
      return resp;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  resp.body = buf.substr(body_start, content_length);
  buf.erase(0, body_start + content_length);
  return resp;
}

ClientResponse Fetch(uint16_t port, const std::string& request) {
  int fd = ConnectTo(port);
  SendRaw(fd, request);
  std::string carry;
  ClientResponse resp = ReadOneResponse(fd, &carry);
  ::close(fd);
  return resp;
}

std::string UrlEncode(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

ClientResponse Get(uint16_t port, const std::string& target) {
  return Fetch(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
}

constexpr char kLubmQuery[] =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n } LIMIT 5";

// --- protocol-layer parsing (no sockets) -----------------------------------

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(server::UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(server::UrlDecode("%2Fsparql%3Fq%3D1"), "/sparql?q=1");
  EXPECT_EQ(server::UrlDecode("SELECT%20%3Fx"), "SELECT ?x");
  // Invalid / truncated escapes are kept literally, never crash.
  EXPECT_EQ(server::UrlDecode("100%zz"), "100%zz");
  EXPECT_EQ(server::UrlDecode("%4"), "%4");
  EXPECT_EQ(server::UrlDecode("%"), "%");
}

TEST(FormUrlEncodedTest, SplitsPairsAndDecodes) {
  auto kv = server::ParseFormUrlEncoded("a=1&b=two%20words&empty=&flag");
  ASSERT_EQ(kv.size(), 4u);
  EXPECT_EQ(kv[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(kv[1], (std::pair<std::string, std::string>{"b", "two words"}));
  EXPECT_EQ(kv[2], (std::pair<std::string, std::string>{"empty", ""}));
  EXPECT_EQ(kv[3], (std::pair<std::string, std::string>{"flag", ""}));
  EXPECT_TRUE(server::ParseFormUrlEncoded("").empty());
}

TEST(ParseRequestHeadTest, ParsesLineTargetAndLowercasedHeaders) {
  HttpRequest req;
  std::string error;
  ASSERT_TRUE(server::ParseRequestHead(
      "GET /sparql?query=SELECT%20*&limit=2 HTTP/1.1\r\n"
      "Host: localhost:8585\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n",
      &req, &error))
      << error;
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/sparql");
  EXPECT_EQ(req.query, "query=SELECT%20*&limit=2");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.Header("host"), "localhost:8585");
  EXPECT_EQ(req.Header("Content-Type"), "application/x-www-form-urlencoded");
  EXPECT_EQ(req.Header("absent"), "");
  EXPECT_EQ(req.Param("query"), "SELECT *");
  EXPECT_EQ(req.Param("limit"), "2");
}

TEST(ParseRequestHeadTest, RejectsMalformedInput) {
  HttpRequest req;
  std::string error;
  EXPECT_FALSE(server::ParseRequestHead("GARBAGE\r\n", &req, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(server::ParseRequestHead("GET /x HTTP/1.1\r\nno-colon-here\r\n",
                                        &req, &error));
  EXPECT_FALSE(server::ParseRequestHead("FTP /x ftp/1.0\r\n", &req, &error));
}

TEST(ParamTest, FormBodyConsultedOnlyWithFormContentType) {
  HttpRequest req;
  req.body = "query=from%20body";
  req.headers.emplace_back("content-type", "application/x-www-form-urlencoded");
  EXPECT_EQ(req.Param("query"), "from body");
  // Query string wins over the body.
  req.query = "query=from%20url";
  EXPECT_EQ(req.Param("query"), "from url");
  // Without the form content type the body is opaque.
  HttpRequest plain;
  plain.body = "query=hidden";
  EXPECT_EQ(plain.Param("query"), "");
}

TEST(StatusReasonTest, KnownCodesAndFallback) {
  EXPECT_STREQ(server::StatusReason(200), "OK");
  EXPECT_STREQ(server::StatusReason(404), "Not Found");
  EXPECT_STREQ(server::StatusReason(503), "Service Unavailable");
  EXPECT_STREQ(server::StatusReason(418), "Unknown");
}

// --- AdmissionController ---------------------------------------------------

TEST(AdmissionControllerTest, AdmitsUpToCapThenShedsWithZeroQueue) {
  AdmissionController ac({/*max_inflight=*/2, /*queue_limit=*/0,
                          /*max_queue_wait_ms=*/50});
  EXPECT_EQ(ac.Admit(), AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(ac.Admit(), AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(ac.inflight(), 2);
  EXPECT_EQ(ac.Admit(), AdmissionController::Outcome::kShed);
  EXPECT_EQ(ac.shed_total(), 1u);
  EXPECT_EQ(ac.admitted_total(), 2u);
  ac.Release();
  EXPECT_EQ(ac.Admit(), AdmissionController::Outcome::kAdmitted);
  ac.Release();
  ac.Release();
  EXPECT_EQ(ac.inflight(), 0);
}

TEST(AdmissionControllerTest, QueuedRequestAdmittedAfterRelease) {
  AdmissionController ac({/*max_inflight=*/1, /*queue_limit=*/4,
                          /*max_queue_wait_ms=*/10000});
  ASSERT_EQ(ac.Admit(), AdmissionController::Outcome::kAdmitted);
  std::atomic<int> outcome{-1};
  std::thread waiter([&] {
    outcome.store(ac.Admit() == AdmissionController::Outcome::kAdmitted ? 1 : 0);
  });
  // The waiter must park in the queue, not shed.
  while (ac.queued() == 0 && outcome.load() == -1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(outcome.load(), -1);
  EXPECT_EQ(ac.queued(), 1);
  ac.Release();
  waiter.join();
  EXPECT_EQ(outcome.load(), 1);
  EXPECT_EQ(ac.queued(), 0);
  EXPECT_EQ(ac.admitted_total(), 2u);
  EXPECT_EQ(ac.shed_total(), 0u);
  ac.Release();
}

TEST(AdmissionControllerTest, QueueWaitDeadlineSheds) {
  AdmissionController ac({/*max_inflight=*/1, /*queue_limit=*/4,
                          /*max_queue_wait_ms=*/30});
  ASSERT_EQ(ac.Admit(), AdmissionController::Outcome::kAdmitted);
  // No Release: the queued request must give up at the deadline.
  EXPECT_EQ(ac.Admit(), AdmissionController::Outcome::kShed);
  EXPECT_EQ(ac.shed_total(), 1u);
  EXPECT_EQ(ac.queued(), 0);
  ac.Release();
}

TEST(AdmissionControllerTest, FullQueueShedsImmediately) {
  AdmissionController ac({/*max_inflight=*/1, /*queue_limit=*/1,
                          /*max_queue_wait_ms=*/5000});
  ASSERT_EQ(ac.Admit(), AdmissionController::Outcome::kAdmitted);
  std::thread waiter([&] { ac.Admit(); });  // occupies the single queue slot
  while (ac.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queue full -> immediate shed, no waiting.
  EXPECT_EQ(ac.Admit(), AdmissionController::Outcome::kShed);
  ac.Release();
  waiter.join();
  ac.Release();
}

// --- HttpServer over real sockets ------------------------------------------

HttpServer::Options TestHttpOptions(unsigned threads = 2) {
  HttpServer::Options opts;
  opts.port = 0;  // ephemeral
  opts.threads = threads;
  return opts;
}

TEST(HttpServerTest, RoutesRequestAndAnswers404Elsewhere) {
  HttpServer srv(TestHttpOptions());
  srv.Handle("/echo", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = req.method + " " + req.Param("msg") + " " + req.body;
    return resp;
  });
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_NE(srv.port(), 0);

  ClientResponse ok = Get(srv.port(), "/echo?msg=hello%20there");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "GET hello there ");

  ClientResponse post = Fetch(
      srv.port(),
      "POST /echo HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "Content-Length: 4\r\n\r\nbody");
  EXPECT_EQ(post.status, 200);
  EXPECT_EQ(post.body, "POST  body");

  ClientResponse missing = Get(srv.port(), "/nope");
  EXPECT_EQ(missing.status, 404);

  ClientResponse bad_method = Fetch(
      srv.port(), "DELETE /echo HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(bad_method.status, 405);
  srv.Stop();
  EXPECT_FALSE(srv.running());
}

TEST(HttpServerTest, KeepAliveServesMultipleRequestsPerConnection) {
  HttpServer srv(TestHttpOptions());
  std::atomic<int> hits{0};
  srv.Handle("/ping", [&](const HttpRequest&) {
    hits.fetch_add(1);
    return HttpResponse{200, "text/plain; charset=utf-8", "pong", {}};
  });
  ASSERT_TRUE(srv.Start().ok());

  int fd = ConnectTo(srv.port());
  std::string carry;
  SendRaw(fd, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
  ClientResponse first = ReadOneResponse(fd, &carry);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "pong");
  EXPECT_EQ(first.Header("connection"), "keep-alive");
  SendRaw(fd, "GET /ping HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  ClientResponse second = ReadOneResponse(fd, &carry);
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.Header("connection"), "close");
  ::close(fd);

  EXPECT_EQ(hits.load(), 2);
  EXPECT_EQ(srv.connections_accepted(), 1u);
  srv.Stop();
}

TEST(HttpServerTest, HeadRequestStripsBody) {
  HttpServer srv(TestHttpOptions());
  srv.Handle("/doc", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "content", {}};
  });
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse head = Fetch(
      srv.port(), "HEAD /doc HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.body, "");
  srv.Stop();
}

TEST(HttpServerTest, MalformedRequestAnswers400) {
  HttpServer srv(TestHttpOptions());
  srv.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp = Fetch(srv.port(), "NOT-HTTP\r\n\r\n");
  EXPECT_EQ(resp.status, 400);
  srv.Stop();
}

// After a response that closes the connection the server sends nothing
// more and the client reads end-of-stream.
void ExpectClosedAfterResponse(int fd, const std::string& carry) {
  EXPECT_EQ(carry, "");
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << std::strerror(errno);
}

TEST(HttpServerTest, RequestHeadOver16KiBAnswers431AndCloses) {
  HttpServer srv(TestHttpOptions());
  srv.Handle("/x", [](const HttpRequest& req) {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        std::to_string(req.Header("x-pad").size()), {}};
  });
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_EQ(HttpServer::kMaxHeaderBytes, 16u * 1024);
  auto padded_head = [](size_t bytes) {
    std::string head = "GET /x HTTP/1.1\r\nX-Pad: ";
    head.append(bytes - head.size(), 'a');
    return head;
  };

  // A head of exactly 16 KiB is served.
  ClientResponse at_limit =
      Fetch(srv.port(), padded_head(HttpServer::kMaxHeaderBytes) + "\r\n\r\n");
  EXPECT_EQ(at_limit.status, 200);

  // One byte more is refused, terminator or not. Without a terminator the
  // server reads every byte before it answers, so its close is clean.
  int fd = ConnectTo(srv.port());
  SendRaw(fd, padded_head(HttpServer::kMaxHeaderBytes + 4));
  std::string carry;
  ClientResponse over = ReadOneResponse(fd, &carry);
  EXPECT_EQ(over.status, 431);
  EXPECT_EQ(over.Header("connection"), "close");
  ExpectClosedAfterResponse(fd, carry);
  ::close(fd);

  ClientResponse over_terminated = Fetch(
      srv.port(), padded_head(HttpServer::kMaxHeaderBytes + 1) + "\r\n\r\n");
  EXPECT_EQ(over_terminated.status, 431);
  srv.Stop();
}

TEST(HttpServerTest, BodyOver4MiBAnswers413BeforeReadingItAndCloses) {
  HttpServer srv(TestHttpOptions());
  std::atomic<int> hits{0};
  srv.Handle("/x", [&](const HttpRequest& req) {
    hits.fetch_add(1);
    return HttpResponse{200, "text/plain; charset=utf-8",
                        std::to_string(req.body.size()), {}};
  });
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_EQ(HttpServer::kMaxBodyBytes, 4u * 1024 * 1024);
  auto post_head = [](size_t content_length) {
    return "POST /x HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
           "Content-Length: " +
           std::to_string(content_length) + "\r\n\r\n";
  };

  // A body of exactly 4 MiB is read and served.
  ClientResponse at_limit =
      Fetch(srv.port(), post_head(HttpServer::kMaxBodyBytes) +
                            std::string(HttpServer::kMaxBodyBytes, 'b'));
  EXPECT_EQ(at_limit.status, 200);
  EXPECT_EQ(at_limit.body, std::to_string(HttpServer::kMaxBodyBytes));

  // One byte more is refused from the head alone: no body byte is sent, and
  // the answer still arrives.
  int fd = ConnectTo(srv.port());
  SendRaw(fd, post_head(HttpServer::kMaxBodyBytes + 1));
  std::string carry;
  ClientResponse over = ReadOneResponse(fd, &carry);
  EXPECT_EQ(over.status, 413);
  EXPECT_EQ(over.Header("connection"), "close");
  ExpectClosedAfterResponse(fd, carry);
  ::close(fd);
  EXPECT_EQ(hits.load(), 1);
  srv.Stop();
}

// --- SparqlServer end-to-end -----------------------------------------------

class SparqlServerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LubmOptions opts;
    opts.universities = 1;
    engine_ = new engine::QueryEngine(
        std::move(engine::QueryEngine::Open(datagen::GenerateLubm(opts))).value());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static SparqlServerOptions ServerOptions() {
    SparqlServerOptions opts;
    opts.http = TestHttpOptions(/*threads=*/4);
    return opts;
  }

  static engine::QueryEngine* engine_;
};
engine::QueryEngine* SparqlServerFixture::engine_ = nullptr;

TEST_F(SparqlServerFixture, HealthzReportsLiveness) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp = Get(srv.port(), "/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"inflight\":0"), std::string::npos);
  EXPECT_NE(resp.body.find("\"uptime_ms\":"), std::string::npos);
}

TEST_F(SparqlServerFixture, SparqlGetReturnsSparqlJsonWithIds) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp =
      Get(srv.port(), "/sparql?query=" + UrlEncode(kLubmQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.Header("content-type").find("application/sparql-results+json"),
            std::string::npos);
  EXPECT_NE(resp.body.find("\"head\":{\"vars\":[\"x\",\"n\"]}"), std::string::npos);
  EXPECT_NE(resp.body.find("\"bindings\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"type\":\"uri\""), std::string::npos);
  // Request/batch correlation ids are surfaced as response headers.
  EXPECT_NE(resp.Header("x-request-id"), "");
  EXPECT_NE(resp.Header("x-batch-id"), "");
}

TEST_F(SparqlServerFixture, SparqlPostFormAndDirectBodiesWork) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());

  std::string form = "query=" + UrlEncode(kLubmQuery);
  ClientResponse form_resp = Fetch(
      srv.port(),
      "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: " + std::to_string(form.size()) + "\r\n\r\n" + form);
  EXPECT_EQ(form_resp.status, 200);
  EXPECT_NE(form_resp.body.find("\"bindings\":["), std::string::npos);

  std::string query(kLubmQuery);
  ClientResponse direct_resp = Fetch(
      srv.port(),
      "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: " + std::to_string(query.size()) + "\r\n\r\n" + query);
  EXPECT_EQ(direct_resp.status, 200);
  EXPECT_NE(direct_resp.body.find("\"bindings\":["), std::string::npos);
}

TEST_F(SparqlServerFixture, BadQueriesAnswer400) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse missing = Get(srv.port(), "/sparql");
  EXPECT_EQ(missing.status, 400);
  EXPECT_NE(missing.body.find("\"error\":"), std::string::npos);
  ClientResponse parse_error =
      Get(srv.port(), "/sparql?query=" + UrlEncode("SELECT * WHERE { ?x ?p }"));
  EXPECT_EQ(parse_error.status, 400);
  EXPECT_NE(parse_error.body.find("\"error\":"), std::string::npos);
}

TEST_F(SparqlServerFixture, StaticallyEmptyQueryShortCircuits) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());

  // A provably-empty query (unknown predicate) must be answered 200 with
  // zero bindings and the verdict annotation, without the optimizer or the
  // executor ever running — only the static_check counters may move.
  obs::Counter* short_circuits = obs::MetricsRegistry::Global().GetCounter(
      "static_check.short_circuits");
  obs::Counter* plans = obs::MetricsRegistry::Global().GetCounter("opt.plans");
  obs::Counter* select_runs =
      obs::MetricsRegistry::Global().GetCounter("exec.select_runs");
  obs::Counter* bgp_runs =
      obs::MetricsRegistry::Global().GetCounter("exec.bgp_runs");
  uint64_t short_circuits_before = short_circuits->value();
  uint64_t plans_before = plans->value();
  uint64_t select_runs_before = select_runs->value();
  uint64_t bgp_runs_before = bgp_runs->value();

  const char kEmptyQuery[] =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x WHERE { ?x ub:holdsPatentOn ?p }";
  ClientResponse resp =
      Get(srv.port(), "/sparql?query=" + UrlEncode(kEmptyQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.Header("x-static-verdict"), "empty");
  EXPECT_NE(resp.body.find("\"bindings\":[]"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("\"static_verdict\":\"empty\""), std::string::npos)
      << resp.body;

  EXPECT_EQ(short_circuits->value(), short_circuits_before + 1);
  EXPECT_EQ(plans->value(), plans_before);
  EXPECT_EQ(select_runs->value(), select_runs_before);
  EXPECT_EQ(bgp_runs->value(), bgp_runs_before);

  // A satisfiable query on the same server carries no verdict annotation.
  ClientResponse ok = Get(srv.port(), "/sparql?query=" + UrlEncode(kLubmQuery));
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.Header("x-static-verdict"), "");
  EXPECT_EQ(ok.body.find("\"static_verdict\""), std::string::npos);
  EXPECT_GT(plans->value(), plans_before);
}

TEST_F(SparqlServerFixture, ExplainDumpsPlanWithoutExecuting) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp =
      Get(srv.port(), "/explain?query=" + UrlEncode(kLubmQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_FALSE(resp.body.empty());
  EXPECT_NE(resp.Header("content-type").find("text/plain"), std::string::npos);
}

TEST_F(SparqlServerFixture, AccuracyEndpointServesLedgerJson) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp = Get(srv.port(), "/accuracy");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.Header("content-type").find("application/json"), std::string::npos);
  ASSERT_FALSE(resp.body.empty());
  EXPECT_TRUE(resp.body[0] == '[' || resp.body[0] == '{');
}

TEST_F(SparqlServerFixture, AccuracyBucketsSplitByPhysicalOperator) {
  // An engine forced to merge joins records its traced executions under the
  // physical operator name, so /accuracy exposes per-operator q-error
  // buckets instead of one generic "join" population.
  datagen::LubmOptions lubm;
  lubm.universities = 1;
  engine::EngineOptions eng_opts;
  eng_opts.join_mode = phys::JoinMode::kMerge;
  auto merged =
      engine::QueryEngine::Open(datagen::GenerateLubm(lubm), eng_opts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  merged->ResetAccuracyLedger();

  SparqlServer srv(&*merged, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  // No LIMIT: truncated executions are excluded from the ledger.
  constexpr char kExact[] =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n }";
  ClientResponse run = Get(srv.port(), "/sparql?query=" + UrlEncode(kExact));
  ASSERT_EQ(run.status, 200);

  ClientResponse resp = Get(srv.port(), "/accuracy");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"join_type\":\"scan\""), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"join_type\":\"merge\""), std::string::npos)
      << resp.body;
  EXPECT_EQ(resp.body.find("\"join_type\":\"join\""), std::string::npos)
      << resp.body;
  srv.Stop();
}

TEST_F(SparqlServerFixture, MetricsExposePrometheusServerSeries) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  // Generate traffic first so the per-route series exist.
  Get(srv.port(), "/sparql?query=" + UrlEncode(kLubmQuery));
  Get(srv.port(), "/healthz");
  ClientResponse resp = Get(srv.port(), "/metrics");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.Header("content-type").find("version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE server_http_requests counter"),
            std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE server_requests_inflight gauge"),
            std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE server_queue_depth gauge"), std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE server_latency_ms__sparql histogram"),
            std::string::npos);
  EXPECT_NE(resp.body.find("server_latency_ms__sparql_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(resp.body.find("server_http_requests__sparql"), std::string::npos);
  EXPECT_NE(resp.body.find("server_sparql_ok"), std::string::npos);
}

TEST_F(SparqlServerFixture, OverloadShedsWith503AndRetryAfter) {
  SparqlServerOptions opts = ServerOptions();
  opts.admission.max_inflight = 1;
  opts.admission.queue_limit = 0;
  opts.admission.max_queue_wait_ms = 50;
  SparqlServer srv(engine_, opts);
  ASSERT_TRUE(srv.Start().ok());
  // Deterministically occupy the single execution slot.
  ASSERT_EQ(srv.admission().Admit(), AdmissionController::Outcome::kAdmitted);
  ClientResponse resp =
      Get(srv.port(), "/sparql?query=" + UrlEncode(kLubmQuery));
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.Header("retry-after"), "1");
  EXPECT_NE(resp.body.find("overloaded"), std::string::npos);
  EXPECT_EQ(srv.admission().shed_total(), 1u);
  srv.admission().Release();
  // With the slot free the same request succeeds.
  ClientResponse ok = Get(srv.port(), "/sparql?query=" + UrlEncode(kLubmQuery));
  EXPECT_EQ(ok.status, 200);
}

// --- EventLog request-id correlation (satellite) ---------------------------

// Every http.request.* event must share its request id slot-for-slot with
// the batch.* events the request caused, under concurrent clients.
TEST_F(SparqlServerFixture, EventLogCorrelatesRequestIdsAcrossHttpAndBatch) {
  obs::EventLog& log = obs::EventLog::Global();
  log.Clear();
  log.SetEnabled(true);
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::vector<std::pair<std::string, std::string>> ids(kClients);  // req, batch
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      std::string query =
          "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
          "SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n } LIMIT " +
          std::to_string(i + 1);
      ClientResponse resp =
          Get(srv.port(), "/sparql?query=" + UrlEncode(query));
      EXPECT_EQ(resp.status, 200);
      ids[i] = {resp.Header("x-request-id"), resp.Header("x-batch-id")};
    });
  }
  for (std::thread& t : clients) t.join();
  srv.Stop();
  log.SetEnabled(false);

  std::vector<obs::Event> events = log.Snapshot();
  // Index the emitted events by type and request id.
  std::map<std::string, std::string> batch_by_request;   // via http.sparql
  std::set<std::string> started, finished;               // http.request.*
  std::map<std::string, std::set<std::string>> batch_events_by_request;
  for (const obs::Event& ev : events) {
    std::string rid = ev.FieldJson("request_id");
    if (ev.type() == "http.request.start" && ev.FieldJson("route") == "\"/sparql\"") {
      started.insert(rid);
    } else if (ev.type() == "http.request.finish" &&
               ev.FieldJson("route") == "\"/sparql\"") {
      finished.insert(rid);
    } else if (ev.type() == "http.sparql") {
      batch_by_request[rid] = ev.FieldJson("batch_id");
    } else if (ev.type() == "batch.start" || ev.type() == "batch.query" ||
               ev.type() == "batch.finish") {
      if (!rid.empty()) {
        batch_events_by_request[rid].insert(ev.type() + ":" +
                                            ev.FieldJson("batch_id"));
      }
    }
  }

  std::set<std::string> seen_requests, seen_batches;
  for (const auto& [request_id, batch_id] : ids) {
    ASSERT_FALSE(request_id.empty());
    ASSERT_FALSE(batch_id.empty());
    // Ids are process-unique: no two concurrent requests may share either.
    EXPECT_TRUE(seen_requests.insert(request_id).second);
    EXPECT_TRUE(seen_batches.insert(batch_id).second);
    // The request's lifecycle events exist under its id.
    EXPECT_TRUE(started.count(request_id)) << "no http.request.start for " << request_id;
    EXPECT_TRUE(finished.count(request_id)) << "no http.request.finish for " << request_id;
    // http.sparql links this request id to exactly the batch the response
    // header advertised.
    ASSERT_TRUE(batch_by_request.count(request_id));
    EXPECT_EQ(batch_by_request[request_id], batch_id);
    // And the engine's batch.* events carry the same request id back:
    // slot-for-slot, each lifecycle stage names the same (request, batch).
    ASSERT_TRUE(batch_events_by_request.count(request_id))
        << "no batch.* events stamped with request_id " << request_id;
    const std::set<std::string>& stages = batch_events_by_request[request_id];
    EXPECT_TRUE(stages.count("batch.start:" + batch_id));
    EXPECT_TRUE(stages.count("batch.query:" + batch_id));
    EXPECT_TRUE(stages.count("batch.finish:" + batch_id));
  }
}

// --- introspection-plane routes ---------------------------------------------

ClientResponse Post(uint16_t port, const std::string& target) {
  return Fetch(port, "POST " + target +
                         " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                         "Content-Length: 0\r\n\r\n");
}

TEST_F(SparqlServerFixture, DebugBuildReportsToolchain) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp = Get(srv.port(), "/debug/build");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"standard\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"sanitizers\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"build_timestamp\":"), std::string::npos);
}

TEST_F(SparqlServerFixture, DebugQueriesListsCompletedRequests) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_NE(engine_->query_registry(), nullptr)
      << "fixture engine must run with the registry enabled";
  ClientResponse run = Get(srv.port(), "/sparql?query=" + UrlEncode(kLubmQuery));
  ASSERT_EQ(run.status, 200);
  ClientResponse resp = Get(srv.port(), "/debug/queries");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"inflight\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"completed\":[{"), std::string::npos);
  EXPECT_NE(resp.body.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"resources\":{"), std::string::npos);
  // The serving plane's request id is threaded into the registry record.
  EXPECT_NE(resp.body.find("\"request_id\":" + run.Header("x-request-id")),
            std::string::npos);
}

TEST_F(SparqlServerFixture, FlightRecorderRouteAnswersEvenWhenUnarmed) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  ClientResponse resp = Get(srv.port(), "/debug/flightrecorder");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"recorded\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"bundles\":["), std::string::npos);
}

TEST_F(SparqlServerFixture, DebugCancelValidatesPathIdAndMethod) {
  SparqlServer srv(engine_, ServerOptions());
  ASSERT_TRUE(srv.Start().ok());
  // Unknown id: well-formed request, nothing live to cancel.
  ClientResponse unknown = Post(srv.port(), "/debug/queries/999999999/cancel");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_NE(unknown.body.find("\"cancelled\":false"), std::string::npos);
  // GET on the cancel action is a method error, not a cancel.
  ClientResponse get = Get(srv.port(), "/debug/queries/1/cancel");
  EXPECT_EQ(get.status, 405);
  // Malformed id and malformed action path.
  EXPECT_EQ(Post(srv.port(), "/debug/queries/abc/cancel").status, 400);
  EXPECT_EQ(Post(srv.port(), "/debug/queries/7/pause").status, 404);
}

// A long-running request is visible at /debug/queries while in flight, and
// POST /debug/queries/<id>/cancel stops it within one executor work tick.
// An ASK stopped by a limit before it found a solution has no answer: the
// server says so with a non-500 error marked X-Timed-Out instead of
// {"boolean": false}.
TEST(SparqlServerLimitsTest, TruncatedAskIsAnErrorNotFalse) {
  datagen::LubmOptions lubm;
  lubm.universities = 1;
  engine::EngineOptions eopts;
  eopts.exec.max_intermediate_rows = 10;
  engine::QueryEngine eng =
      std::move(engine::QueryEngine::Open(datagen::GenerateLubm(lubm), eopts))
          .value();
  SparqlServerOptions opts;
  opts.http = TestHttpOptions(/*threads=*/2);
  SparqlServer srv(&eng, opts);
  ASSERT_TRUE(srv.Start().ok());
  const std::string ask =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "ASK { ?x a ub:GraduateStudent . ?x ub:name ?n . "
      "FILTER(?n = \"no such name\") }";
  ClientResponse resp = Get(srv.port(), "/sparql?query=" + UrlEncode(ask));
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.Header("x-timed-out"), "true");
  EXPECT_NE(resp.body.find("Aborted: ASK truncated (row-cap)"),
            std::string::npos)
      << resp.body;
  EXPECT_EQ(resp.body.find("\"boolean\""), std::string::npos);
  srv.Stop();
}

TEST(SparqlServerIntrospectionTest, InflightQueryVisibleAndCancellable) {
  datagen::LubmOptions lubm;
  lubm.universities = 1;
  engine::EngineOptions eopts;
  eopts.exec.timeout_ms = 60000;  // backstop so a missed cancel cannot hang CI
  engine::QueryEngine eng =
      std::move(engine::QueryEngine::Open(datagen::GenerateLubm(lubm), eopts))
          .value();

  SparqlServerOptions opts;
  opts.http = TestHttpOptions(/*threads=*/4);
  SparqlServer srv(&eng, opts);
  ASSERT_TRUE(srv.Start().ok());

  // Cross-product COUNT: streams without materializing and cannot finish
  // quickly, so the cancel below is what ends it.
  const std::string slow_query =
      "SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?o . ?b ?q ?r }";
  std::thread runner([&]() {
    ClientResponse resp =
        Get(srv.port(), "/sparql?query=" + UrlEncode(slow_query));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.Header("x-timed-out"), "true");
  });

  // Poll the debug route until the query shows up in flight, then pull its
  // registry id out of the JSON.
  uint64_t id = 0;
  for (int spin = 0; spin < 10000 && id == 0; ++spin) {
    ClientResponse dbg = Get(srv.port(), "/debug/queries");
    ASSERT_EQ(dbg.status, 200);
    size_t at = dbg.body.find("\"phase\":\"execute\"");
    if (at != std::string::npos) {
      size_t obj = dbg.body.rfind("{\"id\":", at);
      ASSERT_NE(obj, std::string::npos);
      id = std::strtoull(dbg.body.c_str() + obj + 6, nullptr, 10);
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "slow query never became visible at /debug/queries";

  ClientResponse cancel =
      Post(srv.port(), "/debug/queries/" + std::to_string(id) + "/cancel");
  EXPECT_EQ(cancel.status, 200);
  EXPECT_NE(cancel.body.find("\"cancelled\":true"), std::string::npos);
  runner.join();

  ClientResponse after = Get(srv.port(), "/debug/queries");
  EXPECT_NE(after.body.find("\"outcome\":\"cancelled\""), std::string::npos);
  srv.Stop();
}

}  // namespace
}  // namespace shapestats
