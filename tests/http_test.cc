// Parser tests for the admin-plane HTTP front end: golden requests, torn
// (byte-at-a-time) feeds, pipelining, and the hostile inputs a public
// port sees — oversized heads, bodies, garbage request lines, wrong HTTP
// versions. Parse errors must be terminal for the stream and suggest the
// right 4xx/5xx status.

#include "net/http.h"

#include <gtest/gtest.h>

#include <string>

namespace pasa {
namespace net {
namespace {

// Feeds the whole string at once and expects exactly one parsed request.
HttpRequest ParseOne(const std::string& bytes) {
  HttpParser parser;
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  Status error;
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Poll::kRequest)
      << error.ToString();
  return request;
}

TEST(HttpParserTest, ParsesGoldenGet) {
  const HttpRequest r = ParseOne(
      "GET /profile?seconds=2&fmt=folded+text HTTP/1.1\r\n"
      "Host: localhost:9100\r\n"
      "User-Agent: prometheus/2.0\r\n"
      "\r\n");
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/profile?seconds=2&fmt=folded+text");
  EXPECT_EQ(r.path, "/profile");
  EXPECT_EQ(r.minor_version, 1);
  ASSERT_EQ(r.headers.count("host"), 1u);  // names lower-cased
  EXPECT_EQ(r.headers.at("host"), "localhost:9100");
  EXPECT_EQ(r.headers.at("user-agent"), "prometheus/2.0");
  EXPECT_TRUE(r.keep_alive);  // HTTP/1.1 default
}

TEST(HttpParserTest, KeepAliveFollowsVersionAndConnectionHeader) {
  EXPECT_TRUE(ParseOne("GET / HTTP/1.1\r\n\r\n").keep_alive);
  EXPECT_FALSE(ParseOne("GET / HTTP/1.0\r\n\r\n").keep_alive);
  EXPECT_FALSE(
      ParseOne("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
  EXPECT_TRUE(
      ParseOne("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
}

TEST(HttpParserTest, TornFeedsReassembleToTheSameRequest) {
  const std::string bytes =
      "GET /metrics HTTP/1.1\r\nHost: a\r\nAccept: text/plain\r\n\r\n";
  HttpParser parser;
  HttpRequest request;
  Status error;
  // Feed one byte at a time: every prefix must report kNeedMore, the full
  // head exactly one request.
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.Feed(&bytes[i], 1);
    EXPECT_EQ(parser.Next(&request, &error), HttpParser::Poll::kNeedMore);
  }
  parser.Feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Poll::kRequest);
  EXPECT_EQ(request.path, "/metrics");
  EXPECT_EQ(request.headers.at("accept"), "text/plain");
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Poll::kNeedMore);
}

TEST(HttpParserTest, PipelinedRequestsParseInOrder) {
  const std::string bytes =
      "GET /healthz HTTP/1.1\r\n\r\n"
      "GET /metrics HTTP/1.1\r\n\r\n"
      "HEAD /slo HTTP/1.1\r\n\r\n";
  HttpParser parser;
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  Status error;
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Poll::kRequest);
  EXPECT_EQ(request.path, "/healthz");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Poll::kRequest);
  EXPECT_EQ(request.path, "/metrics");
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Poll::kRequest);
  EXPECT_EQ(request.method, "HEAD");
  EXPECT_EQ(request.path, "/slo");
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Poll::kNeedMore);
}

// Asserts that `bytes` breaks the stream with the given suggested status,
// and that the error is terminal: every further Next stays kError.
void ExpectTerminalError(const std::string& bytes, int http_status) {
  HttpParser parser;
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  Status error;
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Poll::kError);
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(parser.http_status(), http_status) << error.ToString();
  // Feeding a perfectly valid request afterwards must not resurrect the
  // stream — the byte boundary is lost.
  const std::string good = "GET / HTTP/1.1\r\n\r\n";
  parser.Feed(good.data(), good.size());
  EXPECT_EQ(parser.Next(&request, &error), HttpParser::Poll::kError);
}

TEST(HttpParserTest, GarbageRequestLineIs400) {
  ExpectTerminalError("\xFF\xFE garbage bytes\r\n\r\n", 400);
  ExpectTerminalError("GET\r\n\r\n", 400);  // no target/version
}

TEST(HttpParserTest, MalformedHeaderIs400) {
  ExpectTerminalError("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400);
}

TEST(HttpParserTest, WrongHttpVersionIs505) {
  ExpectTerminalError("GET / HTTP/2.0\r\n\r\n", 505);
  ExpectTerminalError("GET / HTTP/0.9\r\n\r\n", 505);
  ExpectTerminalError("GET /x NOTHTTP\r\n\r\n", 505);  // bad version token
}

TEST(HttpParserTest, RequestBodyIs413) {
  ExpectTerminalError(
      "POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 413);
}

TEST(HttpParserTest, OversizedHeadIs431) {
  std::string huge = "GET / HTTP/1.1\r\n";
  huge += "X-Filler: " + std::string(9000, 'a') + "\r\n\r\n";
  ExpectTerminalError(huge, 431);
}

TEST(HttpParserTest, OversizedHeadRejectedEvenWithoutTerminator) {
  // A peer that streams an endless request line must be cut off at the
  // limit, not buffered forever.
  HttpParser parser;
  const std::string endless(HttpParserLimits{}.max_head_bytes + 1, 'A');
  parser.Feed(endless.data(), endless.size());
  HttpRequest request;
  Status error;
  ASSERT_EQ(parser.Next(&request, &error), HttpParser::Poll::kError);
  EXPECT_EQ(parser.http_status(), 431);
}

TEST(HttpResponseTest, EncodeCarriesStatusLengthAndConnection) {
  const std::string ok =
      EncodeHttpResponse(200, "text/plain", "hello\n", /*keep_alive=*/true);
  EXPECT_EQ(ok.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(ok.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(ok.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(ok.substr(ok.size() - 6), "hello\n");

  const std::string gone =
      EncodeHttpResponse(404, "text/plain", "nope\n", /*keep_alive=*/false);
  EXPECT_EQ(gone.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(gone.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpResponseTest, HeadOmitsBodyButKeepsContentLength) {
  const std::string head = EncodeHttpResponse(200, "text/plain", "hello\n",
                                              /*keep_alive=*/true,
                                              /*head_only=*/true);
  EXPECT_NE(head.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");  // no body bytes
}

}  // namespace
}  // namespace net
}  // namespace pasa
