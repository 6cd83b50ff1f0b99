#ifndef PASA_NET_HTTP_H_
#define PASA_NET_HTTP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace pasa {
namespace net {

/// One parsed HTTP/1.x request, as produced by HttpParser. Only what the
/// admin plane needs: method, target and its path, lower-cased headers, and
/// the keep-alive decision (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
/// close, Connection overrides either way).
struct HttpRequest {
  std::string method;  ///< as sent, upper-case by convention ("GET")
  std::string target;  ///< raw request target ("/profile?seconds=1")
  std::string path;    ///< target up to '?' ("/profile")
  int minor_version = 1;  ///< HTTP/1.<minor_version>
  /// Header fields with lower-cased names; repeated fields keep the last.
  std::map<std::string, std::string> headers;
  /// Whether the connection should stay open after the response.
  bool keep_alive = true;
};

/// Limits a hostile peer is held to; exceeding them is a parse error.
struct HttpParserLimits {
  /// Request line + headers together (the admin plane serves GETs; 8 KiB
  /// is generous).
  size_t max_head_bytes = 8192;
};

/// Incremental, torn-request-tolerant HTTP/1.x request parser, shaped like
/// net::FrameDecoder: Feed() raw bytes as they arrive (in any fragmentation
/// the kernel produces), then Poll with Next() until it reports kNeedMore.
/// Pipelined requests on one connection parse one at a time.
///
/// Parse errors are terminal for the stream (the byte boundary is lost):
/// after kError every further Next() returns kError again. The suggested
/// HTTP status for the error response is in http_status().
///
/// Requests with a non-empty body are rejected (the admin plane is
/// read-only), as are malformed request lines, non-HTTP/1.x versions and
/// heads larger than the limits allow.
class HttpParser {
 public:
  enum class Poll {
    kNeedMore,  ///< no complete head buffered yet
    kRequest,   ///< one request parsed into *request
    kError,     ///< stream is broken; see *error and http_status()
  };

  explicit HttpParser(HttpParserLimits limits = {}) : limits_(limits) {}

  void Feed(const char* data, size_t size);

  Poll Next(HttpRequest* request, Status* error);

  /// The response status an error deserves: 400 for malformed requests,
  /// 431 for oversized heads, 413 for requests with a body, 505 for
  /// non-1.x versions. 0 while no error occurred.
  int http_status() const { return http_status_; }

  /// Approximate heap bytes of the parse buffer (memory accounting,
  /// obs/mem.h).
  uint64_t ApproxBytes() const {
    return buffer_.capacity() <= 15 ? 0 : buffer_.capacity() + 1;
  }

 private:
  HttpParserLimits limits_;
  std::string buffer_;
  bool broken_ = false;
  int http_status_ = 0;
  Status error_ = Status::Ok();
};

/// Reason phrase for the handful of statuses the admin plane emits
/// ("Internal Server Error" for anything unknown).
const char* HttpStatusText(int status);

/// Serializes a complete HTTP/1.1 response with Content-Length and
/// Connection headers. With `head_only` (a HEAD request) the body is
/// omitted but Content-Length still describes it.
std::string EncodeHttpResponse(int status, std::string_view content_type,
                               std::string_view body, bool keep_alive,
                               bool head_only = false);

/// One HTTP exchange as seen by the blocking client helpers.
struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lower-cased names
  std::string body;
};

/// Writes `request_bytes` verbatim to 127.0.0.1:`port` and parses one
/// response (honoring Content-Length; otherwise reads to EOF), waiting at
/// most `timeout_seconds`. The raw-request escape hatch for tests that
/// need to send hostile bytes.
Result<HttpResponse> HttpTransact(uint16_t port,
                                  const std::string& request_bytes,
                                  double timeout_seconds = 5.0);

/// Blocking GET of `target` from the loopback admin endpoint on `port`.
/// Used by pasa_loadgen's end-of-run cross-check and `pasa_cli scrape`.
Result<HttpResponse> HttpGet(uint16_t port, const std::string& target,
                             double timeout_seconds = 5.0);

}  // namespace net
}  // namespace pasa

#endif  // PASA_NET_HTTP_H_
