#include "net/http.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace pasa {
namespace net {
namespace {

constexpr size_t kMaxResponseBytes = 64 * 1024 * 1024;

bool IsTokenChar(char c) {
  // RFC 9110 tchar: the characters a method or header name may contain.
  static const char* extra = "!#$%&'*+-.^_`|~";
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         std::strchr(extra, c) != nullptr;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void HttpParser::Feed(const char* data, size_t size) {
  if (broken_) return;
  buffer_.append(data, size);
}

HttpParser::Poll HttpParser::Next(HttpRequest* request, Status* error) {
  const auto fail = [&](int status, std::string message) {
    broken_ = true;
    http_status_ = status;
    error_ = Status::InvalidArgument(std::move(message));
    *error = error_;
    return Poll::kError;
  };
  if (broken_) {
    *error = error_;
    return Poll::kError;
  }

  // Locate the end of the head. CRLFCRLF per the RFC; bare LFLF is
  // tolerated, as every mainstream server does.
  size_t head_end = buffer_.find("\r\n\r\n");
  size_t body_start;
  if (head_end != std::string::npos) {
    body_start = head_end + 4;
  } else {
    head_end = buffer_.find("\n\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_head_bytes) {
        return fail(431, "request head exceeds " +
                             std::to_string(limits_.max_head_bytes) +
                             " bytes");
      }
      return Poll::kNeedMore;
    }
    body_start = head_end + 2;
  }
  if (head_end > limits_.max_head_bytes) {
    return fail(431, "request head exceeds " +
                         std::to_string(limits_.max_head_bytes) + " bytes");
  }

  // Split the head into lines (tolerating both CRLF and LF).
  const std::string head = buffer_.substr(0, head_end);
  HttpRequest parsed;
  size_t line_start = 0;
  bool first_line = true;
  while (line_start <= head.size()) {
    size_t line_end = head.find('\n', line_start);
    if (line_end == std::string::npos) line_end = head.size();
    std::string_view line(head.data() + line_start, line_end - line_start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    line_start = line_end + 1;
    if (line.empty()) {
      if (first_line) continue;  // stray leading blank line
      break;
    }
    if (first_line) {
      first_line = false;
      // METHOD SP TARGET SP HTTP/1.x
      const size_t sp1 = line.find(' ');
      const size_t sp2 = line.rfind(' ');
      if (sp1 == std::string_view::npos || sp2 == sp1) {
        return fail(400, "malformed request line");
      }
      parsed.method = std::string(line.substr(0, sp1));
      parsed.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
      const std::string_view version = line.substr(sp2 + 1);
      if (parsed.method.empty() || parsed.target.empty()) {
        return fail(400, "malformed request line");
      }
      for (const char c : parsed.method) {
        if (!IsTokenChar(c)) return fail(400, "invalid method");
      }
      for (const char c : parsed.target) {
        if (static_cast<unsigned char>(c) <= 0x20 || c == 0x7f) {
          return fail(400, "invalid request target");
        }
      }
      if (version == "HTTP/1.1") {
        parsed.minor_version = 1;
      } else if (version == "HTTP/1.0") {
        parsed.minor_version = 0;
      } else {
        return fail(505, "unsupported protocol version '" +
                             std::string(version) + "'");
      }
    } else {
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return fail(400, "malformed header field");
      }
      const std::string_view name = line.substr(0, colon);
      for (const char c : name) {
        if (!IsTokenChar(c)) return fail(400, "invalid header name");
      }
      parsed.headers[ToLower(name)] = std::string(Trim(line.substr(colon + 1)));
    }
  }
  if (first_line) return fail(400, "empty request head");

  // The admin plane is read-only: any body (or transfer coding) is refused.
  const auto te = parsed.headers.find("transfer-encoding");
  if (te != parsed.headers.end()) {
    return fail(413, "request bodies are not accepted");
  }
  const auto cl = parsed.headers.find("content-length");
  if (cl != parsed.headers.end()) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(cl->second.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || cl->second.empty()) {
      return fail(400, "malformed Content-Length");
    }
    if (n != 0) return fail(413, "request bodies are not accepted");
  }

  // Split the target; decide keep-alive.
  parsed.path = parsed.target.substr(0, parsed.target.find('?'));
  parsed.keep_alive = parsed.minor_version >= 1;
  const auto conn = parsed.headers.find("connection");
  if (conn != parsed.headers.end()) {
    const std::string value = ToLower(conn->second);
    if (value.find("close") != std::string::npos) {
      parsed.keep_alive = false;
    } else if (value.find("keep-alive") != std::string::npos) {
      parsed.keep_alive = true;
    }
  }

  buffer_.erase(0, body_start);
  *request = std::move(parsed);
  return Poll::kRequest;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Internal Server Error";
  }
}

std::string EncodeHttpResponse(int status, std::string_view content_type,
                               std::string_view body, bool keep_alive,
                               bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpStatusText(status) + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  if (!head_only) out += body;
  return out;
}

// ---------------------------------------------------------------------------
// Blocking client helpers.

namespace {

Result<int> ConnectLoopback(uint16_t port, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (true) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable("connect to 127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    }
    struct timespec pause = {0, 20 * 1000 * 1000};  // 20 ms between retries
    nanosleep(&pause, nullptr);
  }
}

Result<HttpResponse> ParseResponse(const std::string& raw,
                                   bool allow_missing_body) {
  size_t head_end = raw.find("\r\n\r\n");
  size_t body_start;
  if (head_end != std::string::npos) {
    body_start = head_end + 4;
  } else {
    head_end = raw.find("\n\n");
    if (head_end == std::string::npos) {
      return Status::Internal("truncated HTTP response (no header terminator)");
    }
    body_start = head_end + 2;
  }
  HttpResponse response;
  const std::string head = raw.substr(0, head_end);
  size_t line_start = 0;
  bool first_line = true;
  while (line_start <= head.size()) {
    size_t line_end = head.find('\n', line_start);
    if (line_end == std::string::npos) line_end = head.size();
    std::string_view line(head.data() + line_start, line_end - line_start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    line_start = line_end + 1;
    if (line.empty()) break;
    if (first_line) {
      first_line = false;
      // HTTP/1.x SP STATUS SP REASON
      const size_t sp1 = line.find(' ');
      if (sp1 == std::string_view::npos || sp1 + 4 > line.size()) {
        return Status::Internal("malformed HTTP status line");
      }
      response.status =
          std::atoi(std::string(line.substr(sp1 + 1, 3)).c_str());
      if (response.status < 100 || response.status > 599) {
        return Status::Internal("malformed HTTP status line");
      }
    } else {
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      response.headers[ToLower(line.substr(0, colon))] =
          std::string(Trim(line.substr(colon + 1)));
    }
  }
  if (first_line) return Status::Internal("empty HTTP response");
  response.body = raw.substr(body_start);
  const auto cl = response.headers.find("content-length");
  if (cl != response.headers.end()) {
    const size_t expected = std::strtoull(cl->second.c_str(), nullptr, 10);
    if (response.body.size() < expected) {
      // A HEAD response carries Content-Length for a body it never sends.
      if (!allow_missing_body || !response.body.empty()) {
        return Status::Internal("truncated HTTP response body");
      }
    } else {
      response.body.resize(expected);
    }
  }
  return response;
}

}  // namespace

Result<HttpResponse> HttpTransact(uint16_t port,
                                  const std::string& request_bytes,
                                  double timeout_seconds) {
  Result<int> fd = ConnectLoopback(port, timeout_seconds);
  if (!fd.ok()) return fd.status();
  const int sock = *fd;
  // A HEAD response omits the body its Content-Length describes.
  const bool head_request = request_bytes.rfind("HEAD ", 0) == 0;

  size_t written = 0;
  while (written < request_bytes.size()) {
    const ssize_t n = send(sock, request_bytes.data() + written,
                           request_bytes.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close(sock);
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  // Half-close so a server reading to EOF (none of ours, but be a good
  // citizen) sees the request end.
  shutdown(sock, SHUT_WR);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  std::string raw;
  char buf[16 * 1024];
  while (true) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      close(sock);
      return Status::DeadlineExceeded("HTTP response timed out");
    }
    pollfd p{sock, POLLIN, 0};
    const int pr = poll(&p, 1, static_cast<int>(remaining.count()));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) {
      close(sock);
      return Status::DeadlineExceeded("HTTP response timed out");
    }
    const ssize_t n = recv(sock, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      if (raw.size() > kMaxResponseBytes) {
        close(sock);
        return Status::Internal("HTTP response exceeds the size limit");
      }
      // With a Content-Length we can stop as soon as the body is complete
      // (keep-alive servers won't close the connection for us).
      Result<HttpResponse> parsed = ParseResponse(raw, head_request);
      if (parsed.ok() &&
          parsed->headers.find("content-length") != parsed->headers.end()) {
        close(sock);
        return parsed;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or hard error: parse what we have
  }
  close(sock);
  return ParseResponse(raw, head_request);
}

Result<HttpResponse> HttpGet(uint16_t port, const std::string& target,
                             double timeout_seconds) {
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\n"
                              "Host: 127.0.0.1\r\n"
                              "Connection: close\r\n"
                              "\r\n";
  return HttpTransact(port, request, timeout_seconds);
}

}  // namespace net
}  // namespace pasa
