// Minimal dependency-free HTTP/1.1 plumbing for the serve daemon: a blocking
// listener plus request/response framing over POSIX sockets. Connections are
// persistent by default (HTTP/1.1 keep-alive with pipelining support via a
// per-connection read buffer); Content-Length bodies only on the request
// side, with chunked transfer-encoding available on the response side for
// SSE progress streams. The routing layer (server/service.hpp) works on the
// parsed structs and never touches a socket, so it is unit-testable without
// networking.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clrearly::server {

/// One parsed request. Header names are lower-cased on parse; target is
/// split into path and raw query string ("/v1/jobs/7/events?from=3").
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string path;     ///< decoded-enough path ("/v1/jobs/7")
  std::string query;    ///< raw query string without '?', may be empty
  std::string version;  ///< "HTTP/1.1" | "HTTP/1.0"
  std::map<std::string, std::string> headers;
  std::string body;

  /// Value of a query parameter ("from" in "?from=3"), or nullopt.
  std::optional<std::string> query_param(const std::string& key) const;

  /// Header value by lower-cased name, or nullptr when absent.
  const std::string* header(const std::string& lower_name) const;

  /// Connection persistence the client asked for: HTTP/1.1 defaults to
  /// keep-alive unless "Connection: close"; HTTP/1.0 defaults to close
  /// unless "Connection: keep-alive".
  bool keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (e.g. Retry-After on 429), written verbatim.
  std::vector<std::pair<std::string, std::string>> headers;

  static HttpResponse json(int status, std::string body);
  HttpResponse& with_header(std::string name, std::string value);
};

/// Reason phrase for the handful of status codes the service emits.
const char* status_text(int status) noexcept;

/// Parse limits — a request exceeding them is answered 413/431 and dropped.
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

/// Keep-alive policy: a connection serves at most this many requests, and
/// is closed after this much idle time between requests.
inline constexpr std::size_t kMaxRequestsPerConnection = 100;
inline constexpr int kKeepAliveIdleMs = 5000;

/// Buffered per-connection request reader. Owns the leftover bytes between
/// requests, so pipelined requests (several requests in one TCP segment) and
/// bodies split across recv(2) boundaries are both framed correctly: next()
/// loops until the declared Content-Length bytes have arrived (16MB cap)
/// before returning a request, however the kernel fragments them.
class RequestReader {
 public:
  /// `stop` (optional) is polled while waiting for a request to start, so a
  /// stopping server regains its handler threads without waiting out the
  /// full idle timeout.
  explicit RequestReader(int fd, const std::atomic<bool>* stop = nullptr)
      : fd_(fd), stop_(stop) {}

  /// Read one request, waiting at most `idle_timeout_ms` for its first byte
  /// (an already-buffered pipelined request returns immediately). Returns
  /// nullopt on EOF, malformed framing, timeout, stop, or oversize (after
  /// best-effort writing an error response for oversize).
  std::optional<HttpRequest> next(int idle_timeout_ms);

 private:
  /// recv() more bytes into buffer_; false on EOF/error.
  bool fill();

  int fd_;
  const std::atomic<bool>* stop_;
  std::string buffer_;
};

/// Serialize and write a response; `keep_alive` selects the Connection
/// header. Returns false on a short write.
bool write_response(int fd, const HttpResponse& response,
                    bool keep_alive = false);

/// Chunked-response plumbing for SSE streams: write_stream_headers() opens a
/// "Transfer-Encoding: chunked" response (Connection: close — a stream is
/// the connection's last exchange), write_chunk() frames one chunk, and
/// write_last_chunk() terminates the stream. All return false once the
/// client is gone.
bool write_stream_headers(int fd, const std::string& content_type);
bool write_chunk(int fd, const std::string& data);
bool write_last_chunk(int fd);

/// Blocking TCP listener. Construction binds and listens; port 0 picks an
/// ephemeral port (read it back via port()). accept() polls with a short
/// timeout so callers can observe a stop flag between connections.
class Listener {
 public:
  Listener(const std::string& host, int port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int port() const noexcept { return port_; }

  /// Accept one connection, waiting at most `timeout_ms`. Returns the
  /// connected fd (with a receive timeout already set) or -1 on timeout.
  int accept_once(int timeout_ms);

  /// Close the listening socket; subsequent accept_once calls return -1.
  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace clrearly::server
