// Unit tests for the per-request provenance layer: the JSONL round trip
// (field-for-field equality), the bounded overwrite-oldest ring, the
// thread-local ScopedProvenanceRecord scoping rules, and what FinishRequest
// derives from a finished record.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/tail_trace.h"
#include "obs/trace_context.h"
#include "obs/window.h"

namespace pasa {
namespace obs {
namespace {

// Every test runs against the process-wide ring; start disabled and empty.
class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProvenanceRing::Global().Disable();
    ProvenanceRing::Global().Clear();
  }
  void TearDown() override {
    ProvenanceRing::Global().Disable();
    ProvenanceRing::Global().Clear();
  }
};

// A record with every field away from its default, including doubles that
// are not exactly representable in short decimal.
ProvenanceRecord FullRecord() {
  ProvenanceRecord r;
  r.rid = 4217;
  r.sender = 99;
  r.outcome = RequestOutcome::kDegraded;
  r.status = "UNAVAILABLE";
  r.k = 50;
  r.cloak_x1 = -8;
  r.cloak_y1 = 16;
  r.cloak_x2 = 4096;
  r.cloak_y2 = 8192;
  r.cloak_area = (4096 + 8) * (8192 - 16);
  r.policy_node = 57;
  r.tree_path = "r.1.0.0.1.0";
  r.node_depth = 5;
  r.group_size = 44;
  r.passed_up = 4;
  r.cache_hit = false;
  r.stale_fallback = true;
  r.lbs_attempts = 3;
  r.lbs_retries = 2;
  r.breaker_rejected = false;
  r.deadline_exceeded = true;
  r.lbs_simulated_micros = 50'000.0 + 1.0 / 3.0;
  AddFaultFire(&r, "lbs/latency");
  AddFaultFire(&r, "lbs/error");
  AddFaultFire(&r, "lbs/latency");
  r.total_seconds = 3.2589999999999998e-05;
  r.cloak_seconds = 0.1 + 0.2;  // famously not 0.3
  r.lbs_seconds = 1.9366999999999999e-05;
  return r;
}

TEST_F(ProvenanceTest, OutcomeNamesRoundTrip) {
  for (const RequestOutcome outcome :
       {RequestOutcome::kServed, RequestOutcome::kDegraded,
        RequestOutcome::kFailed, RequestOutcome::kRejected}) {
    Result<RequestOutcome> parsed =
        ParseRequestOutcome(RequestOutcomeName(outcome));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, outcome);
  }
  EXPECT_FALSE(ParseRequestOutcome("exploded").ok());
}

TEST_F(ProvenanceTest, AddFaultFireKeepsSortedCounts) {
  ProvenanceRecord r;
  AddFaultFire(&r, "zz");
  AddFaultFire(&r, "aa");
  AddFaultFire(&r, "mm");
  AddFaultFire(&r, "zz");
  ASSERT_EQ(r.fault_fires.size(), 3u);
  EXPECT_EQ(r.fault_fires[0], (std::pair<std::string, uint32_t>{"aa", 1}));
  EXPECT_EQ(r.fault_fires[1], (std::pair<std::string, uint32_t>{"mm", 1}));
  EXPECT_EQ(r.fault_fires[2], (std::pair<std::string, uint32_t>{"zz", 2}));
}

TEST_F(ProvenanceTest, JsonlRoundTripIsFieldForFieldEqual) {
  const ProvenanceRecord original = FullRecord();
  const std::string line = ProvenanceToJsonl(original);
  // One object, no newline: it must be embeddable as one JSONL line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Result<json::Value> parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<ProvenanceRecord> back = ProvenanceFromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The whole point of %.17g serialization: every field, including the
  // doubles, comes back bit-identical.
  EXPECT_TRUE(original == *back);
}

TEST_F(ProvenanceTest, DefaultRecordRoundTripsToo) {
  const ProvenanceRecord original;  // all defaults
  Result<std::vector<ProvenanceRecord>> back =
      ParseProvenanceJsonl(ProvenanceToJsonl(original));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_TRUE(original == back->front());
}

TEST_F(ProvenanceTest, ParseJsonlSkipsBlankLinesAndReportsLineNumbers) {
  const std::string text = ProvenanceToJsonl(FullRecord()) + "\n\n" +
                           ProvenanceToJsonl(ProvenanceRecord{}) + "\n";
  Result<std::vector<ProvenanceRecord>> records = ParseProvenanceJsonl(text);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);

  Result<std::vector<ProvenanceRecord>> bad =
      ParseProvenanceJsonl("{\"rid\":1}\nnot json\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

TEST_F(ProvenanceTest, MalformedOutcomeIsRejected) {
  EXPECT_FALSE(ParseProvenanceJsonl("{\"outcome\":\"sideways\"}").ok());
}

TEST_F(ProvenanceTest, RingOverwritesOldestAndCounts) {
  ProvenanceRing& ring = ProvenanceRing::Global();
  ring.Enable(/*capacity=*/4);
  for (int64_t rid = 1; rid <= 10; ++rid) {
    ProvenanceRecord r;
    r.rid = rid;
    ring.Append(std::move(r));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_appended(), 10u);
  EXPECT_EQ(ring.overwritten(), 6u);
  const std::vector<ProvenanceRecord> records = ring.Records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest first, and only the freshest 4 survive.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].rid, static_cast<int64_t>(7 + i));
  }
}

TEST_F(ProvenanceTest, DisabledRingDropsAppends) {
  ProvenanceRing& ring = ProvenanceRing::Global();
  ASSERT_FALSE(ring.enabled());
  ring.Append(ProvenanceRecord{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_appended(), 0u);
}

TEST_F(ProvenanceTest, WriteJsonlFileRoundTripsTheWholeRing) {
  ProvenanceRing& ring = ProvenanceRing::Global();
  ring.Enable(/*capacity=*/16);
  ProvenanceRecord full = FullRecord();
  ring.Append(full);
  ProvenanceRecord rejected;
  rejected.sender = 7;
  rejected.status = "NOT_FOUND";
  ring.Append(rejected);

  const std::string path = ::testing::TempDir() + "/pasa_audit_test.jsonl";
  ASSERT_TRUE(ring.WriteJsonlFile(path).ok());
  Result<std::vector<ProvenanceRecord>> back = ReadProvenanceJsonlFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_TRUE((*back)[0] == full);
  EXPECT_TRUE((*back)[1] == rejected);

  EXPECT_EQ(ReadProvenanceJsonlFile("/nonexistent/audit.jsonl")
                .status()
                .code(),
            StatusCode::kNotFound);
  // A directory is unreadable: not an audit trail with no records.
  EXPECT_EQ(ReadProvenanceJsonlFile(::testing::TempDir()).status().code(),
            StatusCode::kInternal);
}

TEST_F(ProvenanceTest, ScopedRecordIsInertWhileRingDisabled) {
  ASSERT_EQ(CurrentProvenance(), nullptr);
  ScopedProvenanceRecord scope;
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(scope.get(), nullptr);
  EXPECT_EQ(CurrentProvenance(), nullptr);
}

TEST_F(ProvenanceTest, ScopedRecordCapturesAnnotationsAndStampsTotal) {
  ProvenanceRing& ring = ProvenanceRing::Global();
  ring.Enable();
  {
    ScopedProvenanceRecord scope;
    ASSERT_TRUE(scope.active());
    ASSERT_EQ(CurrentProvenance(), scope.get());
    CurrentProvenance()->rid = 5;
    CurrentProvenance()->cache_hit = true;
    {
      // A nested scope (e.g. the CLI loop inside an already-instrumented
      // caller) must not steal or reset the outer record.
      ScopedProvenanceRecord inner;
      EXPECT_FALSE(inner.active());
      EXPECT_EQ(inner.get(), nullptr);
      EXPECT_EQ(CurrentProvenance(), scope.get());
    }
    EXPECT_EQ(CurrentProvenance()->rid, 5);
  }
  EXPECT_EQ(CurrentProvenance(), nullptr);
  const std::vector<ProvenanceRecord> records = ring.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rid, 5);
  EXPECT_TRUE(records[0].cache_hit);
  EXPECT_GT(records[0].total_seconds, 0.0);
}

uint64_t HistogramCount(const std::string& name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0 : it->second.count;
}

// FinishRequest derives each layer's signals only from the phases the
// record carries, and appends every record to the armed ring.
TEST_F(ProvenanceTest, FinishRequestDerivesEachLayerFromItsPhases) {
  Configure(ObsOptions{.enabled = true});
  ProvenanceRing::Global().Enable();
  WindowRegistry& windows = WindowRegistry::Global();
  windows.Enable();
  windows.Reset();
  const uint64_t csp_before = HistogramCount("csp/handle_request_seconds");
  const uint64_t net_before = HistogramCount("net/serve_latency_seconds");
  constexpr uint64_t kNow = 5'000'000;

  ProvenanceRecord in_process;  // CspServer::HandleRequest alone
  in_process.outcome = RequestOutcome::kDegraded;
  in_process.cloak_seconds = 1e-5;
  in_process.lbs_seconds = 3e-5;
  FinishRequest(std::move(in_process), {}, kNow);
  EXPECT_EQ(HistogramCount("csp/handle_request_seconds"), csp_before + 1);
  EXPECT_EQ(HistogramCount("net/serve_latency_seconds"), net_before);

  ProvenanceRecord remote;  // the network front end around the CSP
  remote.outcome = RequestOutcome::kServed;
  remote.cloak_seconds = 1e-5;
  remote.lbs_seconds = 1e-5;
  remote.net_decode_seconds = 1e-6;
  remote.net_queue_seconds = 2e-6;
  remote.net_encode_seconds = 1e-6;
  remote.total_seconds = 4e-5;
  FinishRequest(std::move(remote), {}, kNow);
  EXPECT_EQ(HistogramCount("csp/handle_request_seconds"), csp_before + 2);
  EXPECT_EQ(HistogramCount("net/serve_latency_seconds"), net_before + 1);

  FinishRequest(ProvenanceRecord{}, {}, kNow);  // no timed phase at all
  EXPECT_EQ(HistogramCount("csp/handle_request_seconds"), csp_before + 2);
  EXPECT_EQ(HistogramCount("net/serve_latency_seconds"), net_before + 1);

  const WindowSnapshot snapshot = windows.Snapshot(kNow);
  EXPECT_EQ(snapshot.histograms.at("csp/window/serve_latency_seconds").count,
            2u);
  const WindowSnapshot::HistogramData& net =
      snapshot.histograms.at("net/window/serve_latency_seconds");
  EXPECT_EQ(net.count, 1u);
  EXPECT_DOUBLE_EQ(net.sum, 1e-6 + 2e-6 + 4e-5);  // decode + queue + total
  const WindowSnapshot::RateData& degraded =
      snapshot.rates.at("csp/window/degraded_rate");
  EXPECT_EQ(degraded.total, 2u);
  EXPECT_EQ(degraded.good, 1u);  // "good" counts degraded answers here
  EXPECT_EQ(ProvenanceRing::Global().size(), 3u);
  windows.Disable();
  windows.Reset();
}

// The tail ring keeps time on the clock FinishRequest books windows and
// SLOs at: a slow request finished at steady time t has left the ring's
// 60 s window once a fast one finishes at t + 61 s. The export is read at
// t + 61 s on the same clock.
TEST_F(ProvenanceTest, TailRingRunsOnTheRequestClock) {
  TailTraceRing& tail = TailTraceRing::Global();
  tail.Enable();
  tail.Reset();
  constexpr uint64_t kT = 1'000'000'000;
  ProvenanceRecord slow;
  slow.trace_id = 0x5104;
  slow.outcome = RequestOutcome::kServed;
  slow.total_seconds = 0.5;
  FinishRequest(std::move(slow), {}, kT);
  ProvenanceRecord fast;
  fast.trace_id = 0xfa57;
  fast.outcome = RequestOutcome::kServed;
  fast.total_seconds = 0.001;
  FinishRequest(std::move(fast), {}, kT + 61'000'000);
  Result<json::Value> doc = json::Parse(tail.ExportJson(kT + 61'000'000));
  tail.Disable();
  tail.Reset();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* slowest = doc->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->array().size(), 1u);
  EXPECT_EQ(slowest->array()[0].Find("trace_id")->str(), TraceIdHex(0xfa57));
}

TEST_F(ProvenanceTest, EnableClearsPreviousRecords) {
  ProvenanceRing& ring = ProvenanceRing::Global();
  ring.Enable(8);
  ring.Append(ProvenanceRecord{});
  EXPECT_EQ(ring.size(), 1u);
  ring.Enable(8);  // re-arming starts a fresh audit
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_appended(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace pasa
