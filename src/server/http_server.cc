#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace shapestats::server {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// send() with MSG_NOSIGNAL so a peer that hung up yields EPIPE, not SIGPIPE.
bool SendAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexVal(s[i + 1]) >= 0 &&
               HexVal(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexVal(s[i + 1]) * 16 + HexVal(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ParseFormUrlEncoded(
    std::string_view s) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find('&', start);
    if (end == std::string_view::npos) end = s.size();
    std::string_view pair = s.substr(start, end - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.emplace_back(UrlDecode(pair), "");
      } else {
        out.emplace_back(UrlDecode(pair.substr(0, eq)),
                         UrlDecode(pair.substr(eq + 1)));
      }
    }
    if (end == s.size()) break;
    start = end + 1;
  }
  return out;
}

bool ParseRequestHead(std::string_view head, HttpRequest* req,
                      std::string* error) {
  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    if (error != nullptr) *error = "malformed request line";
    return false;
  }
  req->method = std::string(request_line.substr(0, sp1));
  req->target = std::string(Trim(request_line.substr(sp1 + 1, sp2 - sp1 - 1)));
  req->version = std::string(request_line.substr(sp2 + 1));
  if (req->method.empty() || req->target.empty() ||
      !StartsWith(req->version, "HTTP/")) {
    if (error != nullptr) *error = "malformed request line";
    return false;
  }
  size_t q = req->target.find('?');
  if (q == std::string::npos) {
    req->path = req->target;
    req->query.clear();
  } else {
    req->path = req->target.substr(0, q);
    req->query = req->target.substr(q + 1);
  }
  req->headers.clear();
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    std::string_view line =
        eol == std::string_view::npos ? head.substr(pos) : head.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 2;
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      if (error != nullptr) *error = "malformed header line";
      return false;
    }
    req->headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                              std::string(Trim(line.substr(colon + 1))));
  }
  return true;
}

std::string HttpRequest::Header(std::string_view name) const {
  std::string lower = ToLower(name);
  for (const auto& [k, v] : headers) {
    if (k == lower) return v;
  }
  return "";
}

std::string HttpRequest::Param(std::string_view key) const {
  for (const auto& [k, v] : ParseFormUrlEncoded(query)) {
    if (k == key) return v;
  }
  if (ToLower(Header("content-type")).find("application/x-www-form-urlencoded") !=
      std::string::npos) {
    for (const auto& [k, v] : ParseFormUrlEncoded(body)) {
      if (k == key) return v;
    }
  }
  return "";
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, Handler handler) {
  routes_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::HandlePrefix(std::string prefix, Handler handler) {
  prefix_routes_.emplace_back(std::move(prefix), std::move(handler));
}

Status HttpServer::Start() {
  if (running_.load()) return Status::AlreadyExists("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::IOError("bind " + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status st = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  running_.store(true);
  unsigned threads = options_.threads == 0 ? 1 : options_.threads;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  // Closing the listen socket unblocks accept(); shutdown first so a
  // concurrent accept fails instead of racing the fd number reuse.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    util::MutexLock lock(mu_);
    cv_.notify_all();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    util::MutexLock lock(mu_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  running_.store(false);
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop()
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Bounded read timeout so workers stuck on an idle keep-alive
    // connection notice Stop() and slow clients cannot pin a worker.
    timeval tv{};
    tv.tv_sec = 0;
    tv.tv_usec = 200 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    util::MutexLock lock(mu_);
    if (pending_.size() >= kMaxPendingConnections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    pending_.push_back(fd);
    cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      util::MutexLock lock(mu_);
      while (pending_.empty() && !stopping_.load()) {
        cv_.wait(mu_);
      }
      if (pending_.empty()) return;  // stopping
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

int HttpServer::ReadRequest(int fd, std::string* buf, HttpRequest* req) {
  // Read timeout ticks (SO_RCVTIMEO is 200ms): an idle keep-alive
  // connection waits until shutdown, but once a request has started
  // arriving the client gets a bounded window to finish sending it.
  constexpr int kMidRequestTimeoutTicks = 50;  // 10s
  int timeout_ticks = 0;
  auto recv_more = [&](bool mid_request) -> int {
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      timeout_ticks = 0;
      buf->append(chunk, static_cast<size_t>(n));
      return 1;
    }
    if (n == 0) return 0;  // peer closed
    if (errno == EINTR) return 1;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (stopping_.load()) return 0;
      if (mid_request && ++timeout_ticks >= kMidRequestTimeoutTicks) {
        WriteResponse(fd, {408, "text/plain; charset=utf-8", "request timeout\n", {}},
                      false);
        return -1;
      }
      return 1;
    }
    return 0;
  };

  // Accumulate until the header terminator, then read the declared body.
  // Without a terminator in its first kMaxHeaderBytes + 4 bytes the head
  // is too large wherever the terminator comes.
  size_t head_end;
  while ((head_end = buf->find("\r\n\r\n")) == std::string::npos &&
         buf->size() < kMaxHeaderBytes + 4) {
    int got = recv_more(/*mid_request=*/!buf->empty());
    if (got <= 0) return got;
  }
  if (head_end > kMaxHeaderBytes) {  // npos included
    WriteResponse(fd, {431, "text/plain; charset=utf-8", "header too large\n", {}},
                  false);
    return -1;
  }

  std::string error;
  if (!ParseRequestHead(std::string_view(*buf).substr(0, head_end), req, &error)) {
    WriteResponse(fd, {400, "text/plain; charset=utf-8", error + "\n", {}}, false);
    return -1;
  }
  size_t body_len = 0;
  std::string cl = req->Header("content-length");
  if (!cl.empty()) body_len = static_cast<size_t>(std::strtoull(cl.c_str(), nullptr, 10));
  if (body_len > kMaxBodyBytes) {
    WriteResponse(fd, {413, "text/plain; charset=utf-8", "body too large\n", {}},
                  false);
    return -1;
  }
  size_t body_start = head_end + 4;
  while (buf->size() < body_start + body_len) {
    int got = recv_more(/*mid_request=*/true);
    if (got <= 0) return got;
  }
  req->body = buf->substr(body_start, body_len);
  // Keep any pipelined bytes for the next request on this connection.
  buf->erase(0, body_start + body_len);
  return 1;
}

void HttpServer::WriteResponse(int fd, const HttpResponse& resp, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    StatusReason(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [k, v] : resp.extra_headers) {
    out += k + ": " + v + "\r\n";
  }
  out += "\r\n";
  out += resp.body;
  SendAll(fd, out.data(), out.size());
}

void HttpServer::ServeConnection(int fd) {
  std::string buf;
  for (;;) {
    HttpRequest req;
    int got = ReadRequest(fd, &buf, &req);
    if (got <= 0) return;  // closed, timed out, or error already answered

    bool keep_alive = !stopping_.load() && req.version == "HTTP/1.1" &&
                      ToLower(req.Header("connection")) != "close";
    HttpResponse resp;
    const Handler* handler = nullptr;
    for (const auto& [path, h] : routes_) {
      if (path == req.path) {
        handler = &h;
        break;
      }
    }
    if (handler == nullptr) {
      // Longest matching prefix route (exact routes always win above).
      size_t best = 0;
      for (const auto& [prefix, h] : prefix_routes_) {
        if (req.path.size() >= prefix.size() && prefix.size() > best &&
            req.path.compare(0, prefix.size(), prefix) == 0) {
          handler = &h;
          best = prefix.size();
        }
      }
    }
    if (handler == nullptr) {
      resp = {404, "text/plain; charset=utf-8", "no such route: " + req.path + "\n", {}};
    } else if (req.method != "GET" && req.method != "POST" && req.method != "HEAD") {
      resp = {405, "text/plain; charset=utf-8", "method not allowed\n", {}};
    } else {
      resp = (*handler)(req);
    }
    if (req.method == "HEAD") resp.body.clear();
    WriteResponse(fd, resp, keep_alive);
    if (!keep_alive) return;
  }
}

}  // namespace shapestats::server
