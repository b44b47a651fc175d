// Minimal HTTP frontend (Fig 4's entry point).
//
// A deliberately small HTTP/1.1 server over POSIX sockets exposing the
// signed-search protocol:
//   POST /search             body = hex(SignedQuery) -> hex(SearchResponse)
//   GET  /healthz                                    -> "ok"
//   GET  /stats                                      -> JSON serving stats + metrics
//   GET  /metrics                                    -> Prometheus text exposition
//   GET  /traces                                     -> JSON list of sampled traces
//   GET  /traces/<id>                                -> one trace as a span tree
//   GET  /traces/<id>/chrome                         -> Chrome trace_event JSON
//                                                       (chrome://tracing, Perfetto)
// Binary payloads travel hex-encoded so the wire format stays the canonical
// one the signatures cover.  One acceptor thread; with a ThreadPool, /search
// requests are dispatched onto it (bounded by max_inflight, 503 over the
// cap) so the serving core answers queries concurrently, and stop()
// drains the in-flight ones before returning.  Without a pool every request
// is served inline on the acceptor thread.
//
// Tracing: every /search runs under a TraceScope.  The trace ID comes from
// the X-VC-Trace request header (16 hex digits) when present, else from the
// signed query's trace_id field, else one is minted server-side; the
// completed trace is offered to TraceCollector::global() before the
// response bytes are sent, so a client that has the response can always
// fetch its trace.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "protocol/cloud.hpp"

namespace vc {

class ThreadPool;

class HttpFrontend {
 public:
  // Binds 127.0.0.1:port (port 0 picks a free port).  Throws UsageError on
  // bind failure.  With a pool, at most `max_inflight` /search requests run
  // concurrently; excess requests get 503 instead of queueing unboundedly.
  HttpFrontend(CloudService& cloud, std::uint16_t port = 0, ThreadPool* pool = nullptr,
               std::size_t max_inflight = 32);
  ~HttpFrontend();

  HttpFrontend(const HttpFrontend&) = delete;
  HttpFrontend& operator=(const HttpFrontend&) = delete;

  void start();
  // Stops accepting, then blocks until every dispatched /search request has
  // finished (graceful drain).
  void stop();
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve_loop();
  // Returns true when ownership of fd was transferred to a pool task.
  bool handle_connection(int fd);
  void serve_search(int fd, const std::string& body, std::uint64_t header_trace_id);
  void drain();
  // Releases one admitted /search slot: gauge, counter and drain cv.  Called
  // exactly once per admission by the RAII release in handle_connection.
  void release_inflight();

  CloudService& cloud_;
  ThreadPool* pool_;
  std::size_t max_inflight_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;
};

// Tiny blocking HTTP client for tests/examples: sends one request and
// returns the response body.  Throws Error on transport problems.
// `extra_headers` is spliced verbatim into the header block; each entry
// must be a full "Name: value\r\n" line (e.g. the X-VC-Trace header).
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path, const std::string& body,
                         const std::string& extra_headers = "");

// Convenience wrapper: run a signed query through a frontend.  A nonzero
// `header_trace_id` travels as the X-VC-Trace header (on top of whatever
// trace_id the signed query itself carries).
SearchResponse http_search(std::uint16_t port, const SignedQuery& query,
                           std::uint64_t header_trace_id = 0);

}  // namespace vc
