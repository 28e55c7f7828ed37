// Minimal zero-dependency HTTP/1.1 server over POSIX sockets, shaped after
// httplib-style endpoint servers (RDF-TDAA's server.cpp): register handlers
// by path, Start() binds and spawns an acceptor plus a fixed set of
// connection workers, Stop() joins them. Supports GET/POST, keep-alive,
// Content-Length bodies, and percent-encoded query strings — exactly the
// surface a SPARQL endpoint and its operational routes (/metrics, /healthz)
// need, and nothing more. Request parsing is exposed as pure functions so
// the protocol layer is unit-testable without sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace shapestats::server {

/// One parsed HTTP request. Header names are lowercased during parsing;
/// values keep their case. `query` is the raw (still percent-encoded)
/// query string after '?'.
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // full request target ("/sparql?query=...")
  std::string path;     // target up to '?' ("/sparql")
  std::string query;    // raw query string ("" when absent)
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of a header (name compared lowercased); "" when absent.
  std::string Header(std::string_view name) const;
  /// Decoded value of a query-string parameter; for POST bodies of type
  /// application/x-www-form-urlencoded the body parameters are consulted
  /// too. Empty string when absent.
  std::string Param(std::string_view key) const;
};

/// One HTTP response. Handlers fill status/body; the server adds
/// Content-Length and connection management headers.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Percent-decodes a URL component ('+' becomes a space; invalid escapes are
/// kept literally).
std::string UrlDecode(std::string_view s);

/// Splits an application/x-www-form-urlencoded string ("a=1&b=2") into
/// decoded key/value pairs.
std::vector<std::pair<std::string, std::string>> ParseFormUrlEncoded(
    std::string_view s);

/// Parses an HTTP request head (request line + headers, without the final
/// blank line). Fills method/target/path/query/version/headers. Returns
/// false (with a diagnostic in *error) on malformed input.
bool ParseRequestHead(std::string_view head, HttpRequest* req,
                      std::string* error);

/// Standard reason phrase for a status code ("OK", "Not Found", ...).
const char* StatusReason(int status);

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; the bound port is reported by port().
    uint16_t port = 0;
    /// Connection-handling threads (each serves one connection at a time).
    unsigned threads = 8;
  };

  /// Accepted connections waiting for a free worker beyond this are closed
  /// immediately (connection-level overload backstop; request-level
  /// admission control with 503s lives in SparqlServer).
  static constexpr size_t kMaxPendingConnections = 256;
  /// A request head past this size is answered 431, a declared body past
  /// this size 413 (before the body is read); both close the connection.
  static constexpr size_t kMaxHeaderBytes = 16 * 1024;
  static constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // No default argument: gcc cannot use a nested aggregate with default
  // member initializers as a default argument inside the enclosing class.
  explicit HttpServer(Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact path (any method). Must be called
  /// before Start().
  void Handle(std::string path, Handler handler);

  /// Registers a handler for every path beginning with `prefix` (e.g.
  /// "/debug/queries/" to serve "/debug/queries/<id>/cancel"). Exact-match
  /// routes win over prefixes; among prefixes the longest match wins. Must
  /// be called before Start().
  void HandlePrefix(std::string prefix, Handler handler);

  /// Binds, listens, and spawns the acceptor + worker threads. Returns a
  /// Status instead of blocking; the server runs until Stop().
  Status Start();

  /// Stops accepting, drains workers, and joins all threads. Idempotent.
  void Stop();

  /// The bound port (useful with Options::port = 0). 0 before Start().
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Total connections accepted / closed at the pending-queue backstop.
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  /// Reads one request from `fd` into *req, consuming from/refilling *buf.
  /// Returns 1 on success, 0 on clean close / timeout-at-idle, -1 after
  /// writing an error response (connection must close).
  int ReadRequest(int fd, std::string* buf, HttpRequest* req);
  void WriteResponse(int fd, const HttpResponse& resp, bool keep_alive);

  Options options_;
  std::vector<std::pair<std::string, Handler>> routes_;
  std::vector<std::pair<std::string, Handler>> prefix_routes_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  mutable util::Mutex mu_;
  std::condition_variable_any cv_;  // signalled with mu_ held
  std::deque<int> pending_ SHAPESTATS_GUARDED_BY(mu_);
};

}  // namespace shapestats::server
