#include "protocol/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"

namespace vc {

namespace {

obs::Counter& http_requests(const char* route) {
  return obs::MetricsRegistry::global().counter(
      "vc_http_requests_total", std::string("route=\"") + route + "\"",
      "HTTP requests by route");
}

obs::Counter& http_responses(int status) {
  return obs::MetricsRegistry::global().counter(
      "vc_http_responses_total", "code=\"" + std::to_string(status) + "\"",
      "HTTP responses by status code");
}

std::string read_until_headers_end(int fd, std::string& buffer) {
  char chunk[2048];
  while (buffer.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) throw Error("http: connection closed mid-headers");
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > 1 << 20) throw Error("http: headers too large");
  }
  std::size_t end = buffer.find("\r\n\r\n");
  std::string headers = buffer.substr(0, end);
  buffer.erase(0, end + 4);
  return headers;
}

std::size_t content_length_of(const std::string& headers) {
  // Case-insensitive scan for Content-Length.
  std::string lower;
  lower.reserve(headers.size());
  for (char c : headers) lower.push_back(static_cast<char>(std::tolower(c)));
  std::size_t pos = lower.find("content-length:");
  if (pos == std::string::npos) return 0;
  return static_cast<std::size_t>(std::strtoull(lower.c_str() + pos + 15, nullptr, 10));
}

// X-VC-Trace: 16-hex-digit trace ID minted by the client; 0 when absent
// or malformed.
std::uint64_t trace_header_of(const std::string& headers) {
  std::string lower;
  lower.reserve(headers.size());
  for (char c : headers) lower.push_back(static_cast<char>(std::tolower(c)));
  std::size_t pos = lower.find("x-vc-trace:");
  if (pos == std::string::npos) return 0;
  std::size_t start = pos + 11;
  std::size_t end = headers.find("\r\n", start);
  if (end == std::string::npos) end = headers.size();
  std::string value = headers.substr(start, end - start);
  std::size_t a = value.find_first_not_of(" \t");
  std::size_t b = value.find_last_not_of(" \t");
  if (a == std::string::npos) return 0;
  return obs::parse_trace_id(value.substr(a, b - a + 1));
}

void read_body(int fd, std::string& buffer, std::size_t length) {
  char chunk[4096];
  while (buffer.size() < length) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) throw Error("http: connection closed mid-body");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) throw Error("http: send failed");
    sent += static_cast<std::size_t>(n);
  }
}

std::string make_response(int status, const std::string& reason, const std::string& body,
                          const char* content_type = "text/plain") {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  out += std::string("Content-Type: ") + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

// Every response funnels through here so vc_http_responses_total{code}
// counts all of them, including errors and shed requests.
void send_response(int fd, int status, const std::string& reason, const std::string& body,
                   const char* content_type = "text/plain") {
  http_responses(status).inc();
  send_all(fd, make_response(status, reason, body, content_type));
}

}  // namespace

HttpFrontend::HttpFrontend(CloudService& cloud, std::uint16_t port, ThreadPool* pool,
                           std::size_t max_inflight)
    : cloud_(cloud), pool_(pool), max_inflight_(std::max<std::size_t>(1, max_inflight)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw UsageError("http: cannot create socket");
  int yes = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw UsageError("http: cannot bind port");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    throw UsageError("http: cannot listen");
  }
}

HttpFrontend::~HttpFrontend() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpFrontend::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpFrontend::stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept() with a self-connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
  }
  if (thread_.joinable()) thread_.join();
  drain();
}

void HttpFrontend::drain() {
  std::unique_lock<std::mutex> lk(inflight_mu_);
  inflight_cv_.wait(lk, [this] { return inflight_ == 0; });
}

void HttpFrontend::serve_loop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    bool transferred = false;
    try {
      transferred = handle_connection(fd);
    } catch (const Error&) {
      // Connection-level problems end that request only.
    }
    if (!transferred) ::close(fd);
  }
}

void HttpFrontend::serve_search(int fd, const std::string& body,
                                std::uint64_t header_trace_id) {
  // The whole request runs under one TraceScope; the response string is
  // built inside it and sent after the scope closes, so by the time the
  // client holds the response the trace is already in the collector and
  // GET /traces/<id> cannot miss it.
  int status = 200;
  std::string reason = "OK";
  std::string resp_body;
  {
    obs::TraceScope trace(header_trace_id, "http_search");
    try {
      Bytes raw = from_hex(body);
      ByteReader r(raw);
      SignedQuery query = SignedQuery::read(r);
      r.expect_done();
      // The signed query's trace_id is authoritative when no header named
      // one (the header exists so un-resigned replayed queries can still be
      // traced individually).
      if (header_trace_id == 0) trace.set_trace_id(query.query.trace_id);
      SearchResponse resp = cloud_.handle(query);
      ByteWriter w;
      resp.write(w);
      resp_body = to_hex(w.data());
    } catch (const VerifyError& e) {
      status = 403;
      reason = "Forbidden";
      resp_body = std::string(e.what()) + "\n";
    } catch (const Error& e) {
      status = 400;
      reason = "Bad Request";
      resp_body = std::string(e.what()) + "\n";
    }
    obs::trace_attr("status", static_cast<std::int64_t>(status));
    obs::trace_attr("response_bytes", static_cast<std::int64_t>(resp_body.size()));
  }
  send_response(fd, status, reason, resp_body);
}

bool HttpFrontend::handle_connection(int fd) {
  std::string buffer;
  std::string headers = read_until_headers_end(fd, buffer);
  std::size_t line_end = headers.find("\r\n");
  std::string request_line = headers.substr(0, line_end);
  read_body(fd, buffer, content_length_of(headers));

  std::string method = request_line.substr(0, request_line.find(' '));
  std::size_t path_start = request_line.find(' ') + 1;
  std::string path = request_line.substr(path_start,
                                         request_line.find(' ', path_start) - path_start);

  if (method == "GET" && path == "/healthz") {
    http_requests("healthz").inc();
    send_response(fd, 200, "OK", "ok\n");
    return false;
  }
  if (method == "GET" && path == "/stats") {
    http_requests("stats").inc();
    // JSON summary: top-level serving counters, a trace-collector summary,
    // plus the full registry (counters / gauges / durations / histogram
    // p50/p90/p95/p99/p999 quantiles).
    auto& collector = obs::TraceCollector::global();
    std::string body = "{\"queries_served\":" + std::to_string(cloud_.queries_served()) +
                       ",\"traces_seen\":" + std::to_string(collector.seen()) +
                       ",\"traces_kept\":" + std::to_string(collector.traces().size()) +
                       ",\"metrics\":" +
                       obs::render_json(obs::MetricsRegistry::global()) + "}";
    send_response(fd, 200, "OK", body, "application/json");
    return false;
  }
  if (method == "GET" && path == "/metrics") {
    http_requests("metrics").inc();
    send_response(fd, 200, "OK",
                  obs::render_prometheus(obs::MetricsRegistry::global()),
                  "text/plain; version=0.0.4");
    return false;
  }
  if (method == "GET" && path == "/traces") {
    http_requests("traces").inc();
    send_response(fd, 200, "OK",
                  obs::render_trace_list_json(obs::TraceCollector::global()),
                  "application/json");
    return false;
  }
  if (method == "GET" && path.rfind("/traces/", 0) == 0) {
    http_requests("traces").inc();
    std::string rest = path.substr(8);
    bool chrome = false;
    const std::string suffix = "/chrome";
    if (rest.size() > suffix.size() &&
        rest.compare(rest.size() - suffix.size(), suffix.size(), suffix) == 0) {
      chrome = true;
      rest.resize(rest.size() - suffix.size());
    }
    std::uint64_t id = obs::parse_trace_id(rest);
    std::shared_ptr<const obs::FinishedTrace> trace =
        id == 0 ? nullptr : obs::TraceCollector::global().find(id);
    if (trace == nullptr) {
      send_response(fd, 404, "Not Found", "no sampled trace with that id\n");
      return false;
    }
    send_response(fd, 200, "OK",
                  chrome ? obs::render_trace_chrome(*trace) : obs::render_trace_json(*trace),
                  "application/json");
    return false;
  }
  if (method == "POST" && path == "/search") {
    http_requests("search").inc();
    std::uint64_t header_trace_id = trace_header_of(headers);
    static obs::Gauge& inflight_gauge = obs::MetricsRegistry::global().gauge(
        "vc_http_inflight", "", "Admitted /search requests currently running");
    if (pool_ == nullptr) {
      // Inline serving still passes through the admission gauge so the
      // metric means the same thing with and without a pool.
      {
        std::lock_guard<std::mutex> lk(inflight_mu_);
        ++inflight_;
      }
      inflight_gauge.add(1);
      // RAII release: decrements on success, transport error, and any
      // exception serve_search lets escape.
      auto slot = std::shared_ptr<void>(nullptr, [this](void*) { release_inflight(); });
      serve_search(fd, buffer, header_trace_id);
      return false;
    }
    // Concurrency cap: admit up to max_inflight dispatched searches; shed
    // load with 503 beyond that rather than queueing unboundedly.
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      if (inflight_ >= max_inflight_) {
        obs::MetricsRegistry::global()
            .counter("vc_http_rejected_total", "reason=\"saturated\"",
                     "Requests shed because the in-flight cap was reached")
            .inc();
        send_response(fd, 503, "Service Unavailable", "server saturated\n");
        return false;
      }
      ++inflight_;
    }
    inflight_gauge.add(1);
    // The slot holder releases the admission exactly once — whether the
    // task runs to completion, throws a transport Error, throws anything
    // else (packaged_task captures it), or the pool drops the task: the
    // last shared_ptr copy going away closes the socket and decrements.
    auto slot = std::shared_ptr<void>(nullptr, [this, fd](void*) {
      ::close(fd);
      release_inflight();
    });
    pool_->submit([this, fd, slot, body = std::move(buffer), header_trace_id] {
      try {
        serve_search(fd, body, header_trace_id);
      } catch (const Error&) {
        // Transport errors end that request only.
      }
    });
    return true;
  }
  send_response(fd, 404, "Not Found", "not found\n");
  return false;
}

void HttpFrontend::release_inflight() {
  static obs::Gauge& inflight_gauge = obs::MetricsRegistry::global().gauge(
      "vc_http_inflight", "", "Admitted /search requests currently running");
  inflight_gauge.add(-1);
  // Notify under the lock: once stop() sees zero it may destroy the
  // frontend, so this thread must be done with the condition variable
  // before the waiter can get the mutex.
  std::lock_guard<std::mutex> lk(inflight_mu_);
  --inflight_;
  inflight_cv_.notify_all();
}

std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path, const std::string& body,
                         const std::string& extra_headers) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("http: cannot create socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw Error("http: cannot connect");
  }
  std::string req = method + " " + path + " HTTP/1.1\r\n";
  req += "Host: 127.0.0.1\r\n";
  req += extra_headers;
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "Connection: close\r\n\r\n";
  req += body;
  try {
    send_all(fd, req);
    std::string buffer;
    std::string headers = read_until_headers_end(fd, buffer);
    read_body(fd, buffer, content_length_of(headers));
    if (headers.find("200") == std::string::npos) {
      throw Error("http: request failed: " + buffer);
    }
    ::close(fd);
    return buffer;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

SearchResponse http_search(std::uint16_t port, const SignedQuery& query,
                           std::uint64_t header_trace_id) {
  std::string body = to_hex(query.encode());
  std::string extra = header_trace_id == 0
                          ? std::string()
                          : "X-VC-Trace: " + obs::trace_id_hex(header_trace_id) + "\r\n";
  std::string resp_hex = http_request(port, "POST", "/search", body, extra);
  Bytes raw = from_hex(resp_hex);
  ByteReader r(raw);
  SearchResponse resp = SearchResponse::read(r);
  r.expect_done();
  return resp;
}

}  // namespace vc
