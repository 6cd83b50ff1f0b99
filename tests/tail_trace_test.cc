// TailTraceRing tests: slowest-N retention order, anomaly capture,
// sliding-window eviction on the steady clock, the disabled fast path, and
// the /trace JSON export shape.

#include "obs/tail_trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "obs/json.h"
#include "obs/window.h"

namespace pasa {
namespace obs {
namespace {

ProvenanceRecord Make(uint64_t trace_id, RequestOutcome outcome) {
  ProvenanceRecord record;
  record.trace_id = trace_id;
  record.rid = static_cast<int64_t>(trace_id);
  record.outcome = outcome;
  return record;
}

constexpr RequestOutcome kServed = RequestOutcome::kServed;
const std::vector<CollectedSpan> kNoSpans;

class TailTraceRingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TailTraceRing::Global().Disable();
    TailTraceRing::Global().Reset();
  }
};

TEST_F(TailTraceRingTest, DisabledDropsEverything) {
  TailTraceRing& ring = TailTraceRing::Global();
  ASSERT_FALSE(ring.enabled());
  ring.Offer(Make(1, kServed), kNoSpans, 1.0, 1000);
  ring.Offer(Make(2, RequestOutcome::kFailed), kNoSpans, 1.0, 1000);
  EXPECT_EQ(ring.slowest_size(), 0u);
  EXPECT_EQ(ring.anomaly_size(), 0u);
}

TEST_F(TailTraceRingTest, KeepsSlowestSorted) {
  TailTraceRing& ring = TailTraceRing::Global();
  ring.Enable();
  // kSlowestCapacity + 2 offers, every one slower than the one before the
  // last two: the two fastest (ids 1 and 2) fall out.
  const size_t n = TailTraceRing::kSlowestCapacity + 2;
  for (size_t i = 1; i <= n; ++i) {
    const double seconds = i <= 2 ? 0.001 * static_cast<double>(i)
                                  : 0.010 * static_cast<double>(i);
    ring.Offer(Make(i, kServed), kNoSpans, seconds, 1);
  }
  ring.Offer(Make(99, kServed), kNoSpans, 0.0005, 1);  // too fast: dropped
  EXPECT_EQ(ring.slowest_size(), TailTraceRing::kSlowestCapacity);

  Result<json::Value> doc = json::Parse(ring.ExportJson(1));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* slowest = doc->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->array().size(), TailTraceRing::kSlowestCapacity);
  // Slowest first: ids n, n-1, ..., 3.
  for (size_t i = 0; i < slowest->array().size(); ++i) {
    EXPECT_EQ(slowest->array()[i].Find("trace_id")->str(),
              TraceIdHex(n - i));
    EXPECT_DOUBLE_EQ(slowest->array()[i].Find("total_seconds")->number(),
                     0.010 * static_cast<double>(n - i));
  }
}

TEST_F(TailTraceRingTest, AnomaliesAlwaysKeptNewestFirst) {
  TailTraceRing& ring = TailTraceRing::Global();
  ring.Enable();
  const RequestOutcome outcomes[] = {RequestOutcome::kFailed,
                                     RequestOutcome::kDegraded,
                                     RequestOutcome::kRejected};
  const size_t n = TailTraceRing::kAnomalyCapacity + 2;
  for (size_t i = 1; i <= n; ++i) {
    ring.Offer(Make(i, outcomes[i % 3]), kNoSpans, 0.0001, i);
  }
  // Capacity bound: the two oldest were dropped and counted.
  EXPECT_EQ(ring.anomaly_size(), TailTraceRing::kAnomalyCapacity);
  EXPECT_EQ(ring.anomalies_dropped(), 2u);

  Result<json::Value> doc = json::Parse(ring.ExportJson());
  ASSERT_TRUE(doc.ok());
  const json::Value* anomalies = doc->Find("anomalies");
  ASSERT_NE(anomalies, nullptr);
  ASSERT_EQ(anomalies->array().size(), TailTraceRing::kAnomalyCapacity);
  EXPECT_EQ(anomalies->array()[0].Find("trace_id")->str(), TraceIdHex(n));
  EXPECT_EQ(anomalies->array()[0].Find("outcome")->str(),
            RequestOutcomeName(outcomes[n % 3]));
  EXPECT_EQ(anomalies->array()[1].Find("outcome")->str(),
            RequestOutcomeName(outcomes[(n - 1) % 3]));
  EXPECT_EQ(anomalies->array().back().Find("trace_id")->str(),
            TraceIdHex(3));
}

TEST_F(TailTraceRingTest, WindowEvictsOldSlowest) {
  TailTraceRing& ring = TailTraceRing::Global();
  ring.Enable();
  ring.Offer(Make(1, kServed), kNoSpans, 0.5, 1000);
  // Still inside the window: a faster request joins, the slow one stays.
  ring.Offer(Make(2, kServed), kNoSpans, 0.001,
             1000 + TailTraceRing::kWindowMicros);
  EXPECT_EQ(ring.slowest_size(), 2u);
  // Past the window the first two have aged out, so even a much faster
  // request is all that is left.
  ring.Offer(Make(3, kServed), kNoSpans, 0.0001,
             2 * TailTraceRing::kWindowMicros + 1001);
  Result<json::Value> doc = json::Parse(
      ring.ExportJson(2 * TailTraceRing::kWindowMicros + 1001));
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->Find("window_seconds")->number(),
                   TailTraceRing::kWindowMicros / 1e6);
  const json::Value* slowest = doc->Find("slowest");
  ASSERT_EQ(slowest->array().size(), 1u);
  EXPECT_EQ(slowest->array()[0].Find("trace_id")->str(), TraceIdHex(3));
}

TEST_F(TailTraceRingTest, ExportDropsSlowestOutsideTheWindow) {
  TailTraceRing& ring = TailTraceRing::Global();
  ring.Enable();
  // One request, then no further Offer, as when traffic stops: read 1 s
  // after it finished the export lists it, read 120 s after it the export
  // itself must drop it from the 60 s window.
  const uint64_t finished = NowMicros();
  ring.Offer(Make(1, kServed), kNoSpans, 0.5, finished);
  Result<json::Value> doc = json::Parse(ring.ExportJson(finished + 1'000'000));
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->Find("window_seconds")->number(), 60.0);
  ASSERT_EQ(doc->Find("slowest")->array().size(), 1u);
  EXPECT_EQ(doc->Find("slowest")->array()[0].Find("trace_id")->str(),
            TraceIdHex(1));

  doc = json::Parse(ring.ExportJson(finished + 120'000'000));
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->Find("window_seconds")->number(), 60.0);
  EXPECT_TRUE(doc->Find("slowest")->array().empty());
  EXPECT_EQ(ring.slowest_size(), 0u);
}

TEST_F(TailTraceRingTest, ExportCarriesSpans) {
  TailTraceRing& ring = TailTraceRing::Global();
  ring.Enable();
  std::vector<CollectedSpan> spans;
  spans.push_back(CollectedSpan{10, 0, "net/dispatch", 0.0, 10000.0});
  spans.push_back(CollectedSpan{11, 10, "net/dispatch/csp", 100.0, 9000.0});
  ring.Offer(Make(0xabc, kServed), spans, 0.010, 1);

  const std::string body = ring.ExportJson(1);
  Result<json::Value> doc = json::Parse(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* slowest = doc->Find("slowest");
  ASSERT_EQ(slowest->array().size(), 1u);
  const json::Value& trace = slowest->array()[0];
  EXPECT_EQ(trace.Find("trace_id")->str(), TraceIdHex(0xabc));
  EXPECT_EQ(trace.Find("rid")->number(), 0xabc);
  EXPECT_EQ(trace.Find("outcome")->str(), "served");
  const json::Value* json_spans = trace.Find("spans");
  ASSERT_NE(json_spans, nullptr);
  ASSERT_EQ(json_spans->array().size(), 2u);
  EXPECT_EQ(json_spans->array()[0].Find("path")->str(), "net/dispatch");
  EXPECT_EQ(json_spans->array()[1].Find("parent_span_id")->str(),
            TraceIdHex(10));
  EXPECT_DOUBLE_EQ(json_spans->array()[1].Find("duration_micros")->number(),
                   9000.0);
  // The keys, their order and the `"key": value` spacing that tools/ci.sh
  // and `pasa_cli slowest` parse.
  EXPECT_EQ(body.rfind("{\"window_seconds\": 60,\n\"slowest\": [\n "
                       "{\"trace_id\": \"0000000000000abc\", \"rid\": 2748, "
                       "\"outcome\": \"served\", \"total_seconds\": 0.01, "
                       "\"completed_wall_micros\": ",
                       0),
            0u)
      << body;
  EXPECT_NE(body.find(", \"spans\": [{\"span_id\": \"000000000000000a\", "
                      "\"parent_span_id\": \"0000000000000000\", \"path\": "
                      "\"net/dispatch\", \"start_micros\": 0, "
                      "\"duration_micros\": 10000}, {"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\n],\n\"anomalies\": [\n]}\n"), std::string::npos)
      << body;
}

TEST_F(TailTraceRingTest, OfferStampsCompletionTime) {
  TailTraceRing& ring = TailTraceRing::Global();
  ring.Enable();
  // A request finished 5 s ago on the steady clock reads 5 s ago on the
  // wall clock: completed_wall_micros is derived when the ring is read.
  const auto wall_now = [] {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  };
  const double wall_before = wall_now();
  ring.Offer(Make(1, kServed), kNoSpans, 0.001, NowMicros() - 5'000'000);
  Result<json::Value> doc = json::Parse(ring.ExportJson());
  const double wall_after = wall_now();
  ASSERT_TRUE(doc.ok());
  const json::Value* slowest = doc->Find("slowest");
  ASSERT_EQ(slowest->array().size(), 1u);
  const double completed =
      slowest->array()[0].Find("completed_wall_micros")->number();
  EXPECT_GE(completed, wall_before - 5e6 - 1e3);
  EXPECT_LE(completed, wall_after - 5e6 + 1e3);
}

}  // namespace
}  // namespace obs
}  // namespace pasa
