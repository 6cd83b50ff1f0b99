// Unit tests for the per-request provenance layer: the JSONL round trip
// (field-for-field equality), the bounded overwrite-oldest ring, the
// thread-local ScopedProvenanceRecord scoping rules, and what FinishRequest
// derives from a finished record.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/tree_path.h"

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
  r.status = StatusCode::kUnavailable;
  r.k = 50;
  r.cloak_x1 = -8;
  r.cloak_y1 = 16;
  r.cloak_x2 = 4096;
  r.cloak_y2 = 8192;
  r.cloak_area = (4096 + 8) * (8192 - 16);
  r.policy_node = 57;
  r.tree_path = *TreePath::Parse("r.1.0.0.1.0");
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

// Records covering every outcome, every status name, tree paths of depth
// 0, 1, 17 and 63 plus the unknown path, zero and non-zero trace ids,
// fault point names that need JSON escapes, and doubles whose shortest
// exact rendering is long (1e-7, 0.1, the largest finite value).
std::vector<ProvenanceRecord> GoldenRecords() {
  std::vector<ProvenanceRecord> records;
  records.push_back(ProvenanceRecord{});  // all defaults: unknown path

  {
    ProvenanceRecord r;
    r.rid = 1;
    r.sender = 42;
    r.outcome = RequestOutcome::kServed;
    r.status = StatusCode::kOk;
    r.trace_id = 0x0123456789abcdefULL;
    r.k = 50;
    r.cloak_x1 = 0;
    r.cloak_y1 = 0;
    r.cloak_x2 = 131072;
    r.cloak_y2 = 131072;
    r.cloak_area = 131072LL * 131072LL;
    r.policy_node = 0;
    r.tree_path = TreePath::FromTurns(0, 0);
    r.node_depth = 0;
    r.group_size = 100000;
    r.passed_up = 0;
    r.cache_hit = true;
    r.lbs_attempts = 0;
    r.total_seconds = 1e-7;
    r.cloak_seconds = 0.1;
    r.lbs_seconds = DBL_MAX;
    records.push_back(r);
  }
  {
    ProvenanceRecord r;
    r.rid = 2;
    r.sender = -7;
    r.outcome = RequestOutcome::kDegraded;
    r.status = StatusCode::kUnavailable;
    r.trace_id = 0xffffffffffffffffULL;
    r.k = 10;
    r.cloak_x1 = -65536;
    r.cloak_y1 = 65536;
    r.cloak_x2 = 0;
    r.cloak_y2 = 131072;
    r.cloak_area = 65536LL * 65536LL;
    r.policy_node = 2;
    r.tree_path = TreePath::FromTurns(1, 1);
    r.node_depth = 1;
    r.group_size = 51;
    r.passed_up = 1;
    r.stale_fallback = true;
    r.lbs_attempts = 4;
    r.lbs_retries = 3;
    r.lbs_simulated_micros = 0.1;
    AddFaultFire(&r, "lbs/\"quoted\"");
    AddFaultFire(&r, "back\\slash");
    AddFaultFire(&r, "tab\tnew\nline");
    AddFaultFire(&r, std::string("ctl\x01\x1f", 5));
    AddFaultFire(&r, "lbs/\"quoted\"");
    r.total_seconds = DBL_MAX;
    r.cloak_seconds = 1e-7;
    r.lbs_seconds = 0.1;
    r.net_decode_seconds = 1e-7;
    r.net_queue_seconds = 0.1;
    r.net_encode_seconds = DBL_MAX;
    records.push_back(r);
  }
  {
    ProvenanceRecord r;
    r.rid = 3;
    r.sender = 9007199254740991LL;
    r.outcome = RequestOutcome::kFailed;
    r.status = StatusCode::kDeadlineExceeded;
    r.trace_id = 1;
    r.k = 2;
    r.cloak_x1 = 17;
    r.cloak_y1 = 34;
    r.cloak_x2 = 18;
    r.cloak_y2 = 35;
    r.cloak_area = 1;
    r.policy_node = 262143;
    r.tree_path = TreePath::FromTurns(0x1b5a3, 17);
    r.node_depth = 17;
    r.group_size = 2;
    r.passed_up = 0;
    r.lbs_attempts = 1;
    r.breaker_rejected = true;
    r.deadline_exceeded = true;
    r.lbs_simulated_micros = 1e-7;
    AddFaultFire(&r, "lbs/timeout");
    r.total_seconds = 0.1;
    r.cloak_seconds = DBL_MAX;
    r.lbs_seconds = 1e-7;
    records.push_back(r);
  }
  {
    ProvenanceRecord r;
    r.rid = 4;
    r.sender = 123;
    r.outcome = RequestOutcome::kServed;
    r.status = StatusCode::kInfeasible;
    r.k = 5;
    r.policy_node = 2147483647;
    r.tree_path = TreePath::FromTurns(0x5a5a5a5a5a5a5a5aULL, 63);
    r.node_depth = 63;
    r.group_size = 5;
    r.passed_up = 3;
    r.lbs_simulated_micros = DBL_MAX;
    records.push_back(r);
  }
  {
    ProvenanceRecord r;
    r.sender = 8;
    r.outcome = RequestOutcome::kRejected;
    r.status = StatusCode::kInvalidArgument;
    r.k = 50;
    records.push_back(r);
  }
  {
    ProvenanceRecord r;
    r.rid = 6;
    r.outcome = RequestOutcome::kFailed;
    r.status = StatusCode::kInternal;
    r.tree_path = TreePath::FromTurns(~0ULL, 63);
    r.node_depth = 63;
    records.push_back(r);
  }
  {
    ProvenanceRecord r;
    r.sender = 9;
    r.outcome = RequestOutcome::kRejected;
    r.status = StatusCode::kNotFound;
    r.trace_id = 0xabc;
    records.push_back(r);
  }
  return records;
}

// ProvenanceToJsonl of GoldenRecords(), as the audit format has always
// written them (captured when status and tree_path were strings): the
// bytes a written audit file holds, which must not change.
const char* const kGoldenLines[] = {
    R"({"rid":0,"sender":0,"outcome":"rejected","status":"OK","k":0,"cloak_x1":0,"cloak_y1":0,"cloak_x2":0,"cloak_y2":0,"cloak_area":0,"policy_node":-1,"tree_path":"","node_depth":-1,"group_size":0,"passed_up":0,"cache_hit":false,"stale_fallback":false,"lbs_attempts":0,"lbs_retries":0,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":0,"fault_fires":{},"total_seconds":0,"cloak_seconds":0,"lbs_seconds":0,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
    R"({"rid":1,"sender":42,"outcome":"served","status":"OK","trace_id":"0123456789abcdef","k":50,"cloak_x1":0,"cloak_y1":0,"cloak_x2":131072,"cloak_y2":131072,"cloak_area":17179869184,"policy_node":0,"tree_path":"r","node_depth":0,"group_size":100000,"passed_up":0,"cache_hit":true,"stale_fallback":false,"lbs_attempts":0,"lbs_retries":0,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":0,"fault_fires":{},"total_seconds":9.9999999999999995e-08,"cloak_seconds":0.10000000000000001,"lbs_seconds":1.7976931348623157e+308,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
    R"({"rid":2,"sender":-7,"outcome":"degraded","status":"UNAVAILABLE","trace_id":"ffffffffffffffff","k":10,"cloak_x1":-65536,"cloak_y1":65536,"cloak_x2":0,"cloak_y2":131072,"cloak_area":4294967296,"policy_node":2,"tree_path":"r.1","node_depth":1,"group_size":51,"passed_up":1,"cache_hit":false,"stale_fallback":true,"lbs_attempts":4,"lbs_retries":3,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":0.10000000000000001,"fault_fires":{"back\\slash":1,"ctl\u0001\u001f":1,"lbs/\"quoted\"":2,"tab\tnew\nline":1},"total_seconds":1.7976931348623157e+308,"cloak_seconds":9.9999999999999995e-08,"lbs_seconds":0.10000000000000001,"net_decode_seconds":9.9999999999999995e-08,"net_queue_seconds":0.10000000000000001,"net_encode_seconds":1.7976931348623157e+308})",
    R"({"rid":3,"sender":9007199254740991,"outcome":"failed","status":"DEADLINE_EXCEEDED","trace_id":"0000000000000001","k":2,"cloak_x1":17,"cloak_y1":34,"cloak_x2":18,"cloak_y2":35,"cloak_area":1,"policy_node":262143,"tree_path":"r.1.1.0.1.1.0.1.0.1.1.0.1.0.0.0.1.1","node_depth":17,"group_size":2,"passed_up":0,"cache_hit":false,"stale_fallback":false,"lbs_attempts":1,"lbs_retries":0,"breaker_rejected":true,"deadline_exceeded":true,"lbs_simulated_micros":9.9999999999999995e-08,"fault_fires":{"lbs/timeout":1},"total_seconds":0.10000000000000001,"cloak_seconds":1.7976931348623157e+308,"lbs_seconds":9.9999999999999995e-08,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
    R"({"rid":4,"sender":123,"outcome":"served","status":"INFEASIBLE","k":5,"cloak_x1":0,"cloak_y1":0,"cloak_x2":0,"cloak_y2":0,"cloak_area":0,"policy_node":2147483647,"tree_path":"r.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0.0.1.0.1.1.0.1.0","node_depth":63,"group_size":5,"passed_up":3,"cache_hit":false,"stale_fallback":false,"lbs_attempts":0,"lbs_retries":0,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":1.7976931348623157e+308,"fault_fires":{},"total_seconds":0,"cloak_seconds":0,"lbs_seconds":0,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
    R"({"rid":0,"sender":8,"outcome":"rejected","status":"INVALID_ARGUMENT","k":50,"cloak_x1":0,"cloak_y1":0,"cloak_x2":0,"cloak_y2":0,"cloak_area":0,"policy_node":-1,"tree_path":"","node_depth":-1,"group_size":0,"passed_up":0,"cache_hit":false,"stale_fallback":false,"lbs_attempts":0,"lbs_retries":0,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":0,"fault_fires":{},"total_seconds":0,"cloak_seconds":0,"lbs_seconds":0,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
    R"({"rid":6,"sender":0,"outcome":"failed","status":"INTERNAL","k":0,"cloak_x1":0,"cloak_y1":0,"cloak_x2":0,"cloak_y2":0,"cloak_area":0,"policy_node":-1,"tree_path":"r.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1","node_depth":63,"group_size":0,"passed_up":0,"cache_hit":false,"stale_fallback":false,"lbs_attempts":0,"lbs_retries":0,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":0,"fault_fires":{},"total_seconds":0,"cloak_seconds":0,"lbs_seconds":0,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
    R"({"rid":0,"sender":9,"outcome":"rejected","status":"NOT_FOUND","trace_id":"0000000000000abc","k":0,"cloak_x1":0,"cloak_y1":0,"cloak_x2":0,"cloak_y2":0,"cloak_area":0,"policy_node":-1,"tree_path":"","node_depth":-1,"group_size":0,"passed_up":0,"cache_hit":false,"stale_fallback":false,"lbs_attempts":0,"lbs_retries":0,"breaker_rejected":false,"deadline_exceeded":false,"lbs_simulated_micros":0,"fault_fires":{},"total_seconds":0,"cloak_seconds":0,"lbs_seconds":0,"net_decode_seconds":0,"net_queue_seconds":0,"net_encode_seconds":0})",
};

// A record with every field drawn at random: integers within the ±2^53 a
// JSON number holds exactly, any finite double, every status, outcome and
// path depth, and fault point names over all of ASCII.
ProvenanceRecord RandomRecord(Rng* rng) {
  constexpr int64_t kExact = int64_t{1} << 53;
  const auto integer = [rng] { return rng->NextInRange(-kExact, kExact); };
  const auto count = [rng] { return rng->NextBounded(kExact + 1); };
  const auto int32 = [rng] {
    return static_cast<int32_t>(rng->NextInRange(INT32_MIN, INT32_MAX));
  };
  const auto uint32 = [rng] { return static_cast<uint32_t>(rng->Next()); };
  const auto boolean = [rng] { return rng->NextBounded(2) == 1; };
  const auto real = [rng] {
    for (;;) {
      const double v = std::bit_cast<double>(rng->Next());
      if (std::isfinite(v)) return v;
    }
  };
  ProvenanceRecord r;
  r.rid = integer();
  r.sender = integer();
  r.outcome = static_cast<RequestOutcome>(rng->NextBounded(4));
  r.status = static_cast<StatusCode>(rng->NextBounded(7));
  r.trace_id = rng->Next();
  r.k = int32();
  r.cloak_x1 = integer();
  r.cloak_y1 = integer();
  r.cloak_x2 = integer();
  r.cloak_y2 = integer();
  r.cloak_area = integer();
  r.policy_node = int32();
  // Depth 64 stands for the unknown path.
  r.tree_path = TreePath::FromTurns(rng->Next(),
                                    static_cast<int>(rng->NextBounded(65)));
  r.node_depth = int32();
  r.group_size = count();
  r.passed_up = count();
  r.cache_hit = boolean();
  r.stale_fallback = boolean();
  r.lbs_attempts = uint32();
  r.lbs_retries = uint32();
  r.breaker_rejected = boolean();
  r.deadline_exceeded = boolean();
  r.lbs_simulated_micros = real();
  std::map<std::string, uint32_t> fires;
  for (uint64_t i = rng->NextBounded(4); i > 0; --i) {
    std::string point;
    for (uint64_t c = 1 + rng->NextBounded(12); c > 0; --c) {
      point += static_cast<char>(rng->NextBounded(128));
    }
    fires[point] = uint32();
  }
  r.fault_fires.assign(fires.begin(), fires.end());
  r.total_seconds = real();
  r.cloak_seconds = real();
  r.lbs_seconds = real();
  r.net_decode_seconds = real();
  r.net_queue_seconds = real();
  r.net_encode_seconds = real();
  return r;
}

TEST_F(ProvenanceTest, GoldenRecordsKeepTheirAuditBytes) {
  const std::vector<ProvenanceRecord> records = GoldenRecords();
  ASSERT_EQ(records.size(), std::size(kGoldenLines));
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string line = ProvenanceToJsonl(records[i]);
    EXPECT_EQ(line, kGoldenLines[i]) << "record " << i;
    Result<std::vector<ProvenanceRecord>> back = ParseProvenanceJsonl(line);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->size(), 1u);
    EXPECT_TRUE(back->front() == records[i]) << "record " << i;
  }
}

TEST_F(ProvenanceTest, RandomRecordsRoundTrip) {
  Rng rng(20261021);
  for (int i = 0; i < 2000; ++i) {
    const ProvenanceRecord original = RandomRecord(&rng);
    const std::string line = ProvenanceToJsonl(original);
    Result<json::Value> parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    Result<ProvenanceRecord> back = ProvenanceFromJson(*parsed);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << line;
    ASSERT_TRUE(original == *back) << "record " << i << ": " << line;
  }
}

TEST_F(ProvenanceTest, RecordIsAFixedSizeValue) {
  EXPECT_LE(sizeof(ProvenanceRecord), 200u);
  // Only fault fires hold heap; a record without them holds none.
  EXPECT_GT(RecordApproxBytes(FullRecord()), 0u);
  ProvenanceRecord quiet = FullRecord();
  quiet.fault_fires.clear();
  quiet.fault_fires.shrink_to_fit();
  EXPECT_EQ(RecordApproxBytes(quiet), 0u);
  ProvenanceRing ring;
  ring.Enable(/*capacity=*/64);
  for (int i = 0; i < 100; ++i) ring.Append(quiet);
  EXPECT_EQ(ring.ApproxBytes(), 64 * sizeof(ProvenanceRecord));
}

TEST_F(ProvenanceTest, UnknownStatusAndMalformedPathAreRejected) {
  const std::string good = ProvenanceToJsonl(FullRecord());
  const auto with = [&good](const std::string& from, const std::string& to) {
    std::string line = good;
    const size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  for (const std::string& bad :
       {with("\"UNAVAILABLE\"", "\"UNAVAILABLE_NOW\""),
        with("\"UNAVAILABLE\"", "\"unavailable\""),
        with("\"r.1.0.0.1.0\"", "\"r.1.0.2\""),
        with("\"r.1.0.0.1.0\"", "\"root\""),
        with("\"r.1.0.0.1.0\"", "\"r.1.0.\"")}) {
    Result<std::vector<ProvenanceRecord>> parsed =
        ParseProvenanceJsonl(good + "\n" + bad + "\n");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status().ToString();
  }
  // Missing members keep their defaults: OK and the unknown path.
  Result<std::vector<ProvenanceRecord>> bare =
      ParseProvenanceJsonl("{\"rid\":1}");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->front().status, StatusCode::kOk);
  EXPECT_FALSE(bare->front().tree_path.known());
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
  rejected.status = StatusCode::kNotFound;
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
