#include "obs/provenance.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/file.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/tail_trace.h"
#include "obs/trace_context.h"
#include "obs/window.h"

namespace pasa {
namespace obs {
namespace {

/// The outermost ScopedProvenanceRecord open on this thread.
thread_local ScopedProvenanceRecord* g_outermost = nullptr;

/// Exact JSON formatting for doubles: %.17g round-trips every finite value
/// through strtod, which the field-for-field audit round-trip test relies
/// on (the exporters' JsonNumber uses %.12g and is lossy by design).
std::string ExactNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool quoted) {
  if (out->size() > 1) *out += ',';
  *out += '"';
  *out += key;
  *out += "\":";
  if (quoted) {
    *out += '"';
    *out += JsonEscape(value);
    *out += '"';
  } else {
    *out += value;
  }
}

void AppendInt(std::string* out, const char* key, int64_t v) {
  AppendField(out, key, std::to_string(v), /*quoted=*/false);
}

void AppendUint(std::string* out, const char* key, uint64_t v) {
  AppendField(out, key, std::to_string(v), /*quoted=*/false);
}

void AppendBool(std::string* out, const char* key, bool v) {
  AppendField(out, key, v ? "true" : "false", /*quoted=*/false);
}

void AppendDouble(std::string* out, const char* key, double v) {
  AppendField(out, key, ExactNumber(v), /*quoted=*/false);
}

double NumberOr(const json::Value& obj, const char* key, double fallback) {
  const json::Value* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

bool BoolOr(const json::Value& obj, const char* key, bool fallback) {
  const json::Value* v = obj.Find(key);
  return v != nullptr && v->is_bool() ? v->boolean() : fallback;
}

std::string StringOr(const json::Value& obj, const char* key,
                     const std::string& fallback) {
  const json::Value* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->str() : fallback;
}

}  // namespace

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed:
      return "served";
    case RequestOutcome::kDegraded:
      return "degraded";
    case RequestOutcome::kFailed:
      return "failed";
    case RequestOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

Result<RequestOutcome> ParseRequestOutcome(std::string_view name) {
  if (name == "served") return RequestOutcome::kServed;
  if (name == "degraded") return RequestOutcome::kDegraded;
  if (name == "failed") return RequestOutcome::kFailed;
  if (name == "rejected") return RequestOutcome::kRejected;
  return Status::InvalidArgument("unknown request outcome '" +
                                 std::string(name) + "'");
}

void AddFaultFire(ProvenanceRecord* record, std::string_view point) {
  auto& fires = record->fault_fires;
  const auto it = std::lower_bound(
      fires.begin(), fires.end(), point,
      [](const std::pair<std::string, uint32_t>& entry,
         std::string_view key) { return entry.first < key; });
  if (it != fires.end() && it->first == point) {
    ++it->second;
    return;
  }
  fires.insert(it, {std::string(point), 1});
}

uint64_t RecordApproxBytes(const ProvenanceRecord& record) {
  uint64_t bytes = static_cast<uint64_t>(record.fault_fires.capacity()) *
                   sizeof(std::pair<std::string, uint32_t>);
  for (const auto& [point, fires] : record.fault_fires) {
    bytes += StringApproxBytes(point);
  }
  return bytes;
}

std::string ProvenanceToJsonl(const ProvenanceRecord& r) {
  std::string out = "{";
  AppendInt(&out, "rid", r.rid);
  AppendInt(&out, "sender", r.sender);
  AppendField(&out, "outcome", RequestOutcomeName(r.outcome),
              /*quoted=*/true);
  AppendField(&out, "status", StatusCodeName(r.status), /*quoted=*/true);
  if (r.trace_id != 0) {
    AppendField(&out, "trace_id", TraceIdHex(r.trace_id), /*quoted=*/true);
  }
  AppendInt(&out, "k", r.k);
  AppendInt(&out, "cloak_x1", r.cloak_x1);
  AppendInt(&out, "cloak_y1", r.cloak_y1);
  AppendInt(&out, "cloak_x2", r.cloak_x2);
  AppendInt(&out, "cloak_y2", r.cloak_y2);
  AppendInt(&out, "cloak_area", r.cloak_area);
  AppendInt(&out, "policy_node", r.policy_node);
  AppendField(&out, "tree_path", r.tree_path.ToString(), /*quoted=*/true);
  AppendInt(&out, "node_depth", r.node_depth);
  AppendUint(&out, "group_size", r.group_size);
  AppendUint(&out, "passed_up", r.passed_up);
  AppendBool(&out, "cache_hit", r.cache_hit);
  AppendBool(&out, "stale_fallback", r.stale_fallback);
  AppendUint(&out, "lbs_attempts", r.lbs_attempts);
  AppendUint(&out, "lbs_retries", r.lbs_retries);
  AppendBool(&out, "breaker_rejected", r.breaker_rejected);
  AppendBool(&out, "deadline_exceeded", r.deadline_exceeded);
  AppendDouble(&out, "lbs_simulated_micros", r.lbs_simulated_micros);
  std::string fires = "{";
  for (size_t i = 0; i < r.fault_fires.size(); ++i) {
    if (i > 0) fires += ',';
    fires += '"';
    fires += JsonEscape(r.fault_fires[i].first);
    fires += "\":";
    fires += std::to_string(r.fault_fires[i].second);
  }
  fires += '}';
  AppendField(&out, "fault_fires", fires, /*quoted=*/false);
  AppendDouble(&out, "total_seconds", r.total_seconds);
  AppendDouble(&out, "cloak_seconds", r.cloak_seconds);
  AppendDouble(&out, "lbs_seconds", r.lbs_seconds);
  AppendDouble(&out, "net_decode_seconds", r.net_decode_seconds);
  AppendDouble(&out, "net_queue_seconds", r.net_queue_seconds);
  AppendDouble(&out, "net_encode_seconds", r.net_encode_seconds);
  out += '}';
  return out;
}

Result<ProvenanceRecord> ProvenanceFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("provenance record is not a JSON object");
  }
  ProvenanceRecord r;
  Result<RequestOutcome> outcome =
      ParseRequestOutcome(StringOr(value, "outcome", "rejected"));
  if (!outcome.ok()) return outcome.status();
  r.outcome = *outcome;
  r.rid = static_cast<int64_t>(NumberOr(value, "rid", 0));
  r.sender = static_cast<int64_t>(NumberOr(value, "sender", 0));
  Result<StatusCode> status =
      ParseStatusCode(StringOr(value, "status", "OK"));
  if (!status.ok()) return status.status();
  r.status = *status;
  r.trace_id = TraceIdFromHex(StringOr(value, "trace_id", ""));
  r.k = static_cast<int32_t>(NumberOr(value, "k", 0));
  r.cloak_x1 = static_cast<int64_t>(NumberOr(value, "cloak_x1", 0));
  r.cloak_y1 = static_cast<int64_t>(NumberOr(value, "cloak_y1", 0));
  r.cloak_x2 = static_cast<int64_t>(NumberOr(value, "cloak_x2", 0));
  r.cloak_y2 = static_cast<int64_t>(NumberOr(value, "cloak_y2", 0));
  r.cloak_area = static_cast<int64_t>(NumberOr(value, "cloak_area", 0));
  r.policy_node = static_cast<int32_t>(NumberOr(value, "policy_node", -1));
  Result<TreePath> tree_path =
      TreePath::Parse(StringOr(value, "tree_path", ""));
  if (!tree_path.ok()) return tree_path.status();
  r.tree_path = *tree_path;
  r.node_depth = static_cast<int32_t>(NumberOr(value, "node_depth", -1));
  r.group_size = static_cast<uint64_t>(NumberOr(value, "group_size", 0));
  r.passed_up = static_cast<uint64_t>(NumberOr(value, "passed_up", 0));
  r.cache_hit = BoolOr(value, "cache_hit", false);
  r.stale_fallback = BoolOr(value, "stale_fallback", false);
  r.lbs_attempts = static_cast<uint32_t>(NumberOr(value, "lbs_attempts", 0));
  r.lbs_retries = static_cast<uint32_t>(NumberOr(value, "lbs_retries", 0));
  r.breaker_rejected = BoolOr(value, "breaker_rejected", false);
  r.deadline_exceeded = BoolOr(value, "deadline_exceeded", false);
  r.lbs_simulated_micros = NumberOr(value, "lbs_simulated_micros", 0.0);
  if (const json::Value* fires = value.Find("fault_fires");
      fires != nullptr && fires->is_object()) {
    // json objects are sorted maps, matching AddFaultFire's ordering.
    for (const auto& [point, count] : fires->object()) {
      r.fault_fires.emplace_back(
          point, static_cast<uint32_t>(count.number()));
    }
  }
  r.total_seconds = NumberOr(value, "total_seconds", 0.0);
  r.cloak_seconds = NumberOr(value, "cloak_seconds", 0.0);
  r.lbs_seconds = NumberOr(value, "lbs_seconds", 0.0);
  r.net_decode_seconds = NumberOr(value, "net_decode_seconds", 0.0);
  r.net_queue_seconds = NumberOr(value, "net_queue_seconds", 0.0);
  r.net_encode_seconds = NumberOr(value, "net_encode_seconds", 0.0);
  return r;
}

Result<std::vector<ProvenanceRecord>> ParseProvenanceJsonl(
    std::string_view text) {
  std::vector<ProvenanceRecord> records;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find('\n', start);
    const std::string_view line = text.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    ++line_number;
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    Result<json::Value> value = json::Parse(line);
    if (!value.ok()) {
      return Status::InvalidArgument(
          "audit line " + std::to_string(line_number) + ": " +
          value.status().ToString());
    }
    Result<ProvenanceRecord> record = ProvenanceFromJson(*value);
    if (!record.ok()) {
      return Status::InvalidArgument(
          "audit line " + std::to_string(line_number) + ": " +
          record.status().ToString());
    }
    records.push_back(std::move(*record));
  }
  return records;
}

Result<std::vector<ProvenanceRecord>> ReadProvenanceJsonlFile(
    const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseProvenanceJsonl(*text);
}

/// The append-on-record JSONL sink behind StreamTo.
struct ProvenanceRing::Stream {
  std::ofstream file;
};

ProvenanceRing::ProvenanceRing() = default;
ProvenanceRing::~ProvenanceRing() = default;

ProvenanceRing& ProvenanceRing::Global() {
  static ProvenanceRing* ring = new ProvenanceRing();
  return *ring;
}

Status ProvenanceRing::StreamTo(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    fs::create_directories(parent, ec);
  }
  auto stream = std::make_unique<Stream>();
  stream->file.open(path, std::ios::out | std::ios::trunc);
  if (!stream->file) {
    return Status::NotFound("cannot open audit stream " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stream_ = std::move(stream);
  streamed_ = 0;
  return Status::Ok();
}

void ProvenanceRing::StopStreaming() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ != nullptr) stream_->file.flush();
  stream_.reset();
}

bool ProvenanceRing::streaming() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_ != nullptr;
}

uint64_t ProvenanceRing::streamed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streamed_;
}

void ProvenanceRing::Enable(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  ring_.clear();
  if (ring_.capacity() != capacity_) {
    // The whole ring in one allocation: grown by doubling, it would leave
    // its freed smaller buffers (as large as the ring, together) in the
    // allocator's heap. Pages are touched only as records are appended.
    std::vector<ProvenanceRecord>().swap(ring_);
    ring_.reserve(capacity_);
  }
  appended_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void ProvenanceRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  appended_ = 0;
}

void ProvenanceRing::Append(ProvenanceRecord record) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ != nullptr) {
    stream_->file << ProvenanceToJsonl(record) << '\n';
    ++streamed_;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[appended_ % capacity_] = std::move(record);
  }
  ++appended_;
}

size_t ProvenanceRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

size_t ProvenanceRing::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

uint64_t ProvenanceRing::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t ProvenanceRing::overwritten() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_ > ring_.size() ? appended_ - ring_.size() : 0;
}

uint64_t ProvenanceRing::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes =
      static_cast<uint64_t>(ring_.capacity()) * sizeof(ProvenanceRecord);
  for (const ProvenanceRecord& r : ring_) bytes += RecordApproxBytes(r);
  return bytes;
}

std::vector<ProvenanceRecord> ProvenanceRing::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProvenanceRecord> out;
  out.reserve(ring_.size());
  // Once wrapped, the oldest retained record sits at appended_ % capacity_.
  const size_t first =
      appended_ > ring_.size() ? appended_ % capacity_ : 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

Status ProvenanceRing::WriteJsonlFile(const std::string& path) const {
  std::string content;
  for (const ProvenanceRecord& record : Records()) {
    content += ProvenanceToJsonl(record);
    content += '\n';
  }
  return WriteTextFile(path, content);
}

ProvenanceRecord* CurrentProvenance() {
  return g_outermost != nullptr ? g_outermost->get() : nullptr;
}

void FinishRequest(ProvenanceRecord&& record,
                   std::vector<CollectedSpan> spans, uint64_t now_micros) {
  // A timed phase never reads exactly zero, so the phases a record carries
  // say which layers served it: only CspServer::HandleRequest times the
  // cloak, and only the network front end times the net phases.
  const bool csp = record.cloak_seconds > 0.0;
  const bool net = record.net_decode_seconds > 0.0 ||
                   record.net_queue_seconds > 0.0 ||
                   record.net_encode_seconds > 0.0;
  const double csp_seconds = record.cloak_seconds + record.lbs_seconds;
  // The latency a remote client experiences: decode happened before the
  // request was queued, and total_seconds covers serve + encode.
  const double net_seconds = record.net_decode_seconds +
                             record.net_queue_seconds + record.total_seconds;
  // Histograms register on first use, so a process that never serves a
  // layer exports none of its series.
  if (csp) {
    static Histogram& csp_latency =
        MetricsRegistry::Global().GetHistogram("csp/handle_request_seconds");
    csp_latency.Observe(csp_seconds);
  }
  if (net) {
    static Histogram& net_latency =
        MetricsRegistry::Global().GetHistogram("net/serve_latency_seconds");
    static Histogram& queue_wait =
        MetricsRegistry::Global().GetHistogram("net/queue_wait_seconds");
    net_latency.Observe(net_seconds, record.trace_id);
    queue_wait.Observe(record.net_queue_seconds);
  }
  // Client errors don't burn serving SLOs or the degraded rate.
  const bool accepted = record.outcome != RequestOutcome::kRejected;

  WindowRegistry& windows = WindowRegistry::Global();
  if (windows.enabled()) {
    if (csp) {
      static SlidingWindowHistogram& csp_window =
          windows.GetHistogram("csp/window/serve_latency_seconds");
      csp_window.Observe(csp_seconds, now_micros);
      if (accepted) {
        static SlidingWindowRate& degraded_rate =
            windows.GetRate("csp/window/degraded_rate");
        degraded_rate.Record(record.outcome == RequestOutcome::kDegraded,
                             now_micros);
      }
    }
    if (net) {
      static SlidingWindowHistogram& queue_window =
          windows.GetHistogram("net/window/queue_wait_seconds");
      queue_window.Observe(record.net_queue_seconds, now_micros);
      static SlidingWindowHistogram& net_window =
          windows.GetHistogram("net/window/serve_latency_seconds");
      net_window.Observe(net_seconds, now_micros);
    }
  }
  SloTracker& slo = SloTracker::Global();
  if (slo.enabled()) {
    if (csp && accepted) {
      slo.Record(kSloAvailability,
                 record.outcome != RequestOutcome::kFailed, now_micros);
      slo.RecordLatency(kSloServeLatency, csp_seconds, now_micros);
      slo.Record(kSloAnonymity,
                 record.group_size >= static_cast<uint64_t>(record.k),
                 now_micros);
    }
    if (net) slo.RecordLatency(kSloNetServeLatency, net_seconds, now_micros);
  }
  TailTraceRing& tail = TailTraceRing::Global();
  if (record.trace_id != 0 && tail.enabled()) {
    tail.Offer(record, spans, net ? net_seconds : record.total_seconds,
               now_micros);
  }
  ProvenanceRing::Global().Append(std::move(record));
}

ScopedProvenanceRecord::ScopedProvenanceRecord()
    : outermost_(g_outermost == nullptr),
      request_(outermost_ ? &record_ : &g_outermost->record()) {
  if (!outermost_) return;
  collects_spans_ = TailTraceRing::Global().enabled();
  armed_ = collects_spans_ || ProvenanceRing::Global().enabled() ||
           WindowRegistry::Global().enabled() ||
           SloTracker::Global().enabled();
  g_outermost = this;
  start_ = std::chrono::steady_clock::now();
}

void ScopedProvenanceRecord::Finish() {
  if (g_outermost != this) return;
  g_outermost = nullptr;
  const auto end = std::chrono::steady_clock::now();
  record_.total_seconds =
      std::chrono::duration<double>(end - start_).count();
  FinishRequest(std::move(record_), std::move(spans_), SteadyMicros(end));
}

void ScopedProvenanceRecord::CollectSpan(
    uint64_t span_id, uint64_t parent_span_id, const std::string& path,
    std::chrono::steady_clock::time_point start, double seconds) {
  ScopedProvenanceRecord* scope = g_outermost;
  if (scope == nullptr || !scope->collects_spans_) return;
  scope->spans_.push_back(CollectedSpan{
      span_id, parent_span_id, path,
      std::chrono::duration<double, std::micro>(start - scope->start_)
          .count(),
      seconds * 1e6});
}

}  // namespace obs
}  // namespace pasa
