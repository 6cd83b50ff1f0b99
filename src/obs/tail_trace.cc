#include "obs/tail_trace.h"

#include <algorithm>
#include <chrono>

#include "obs/export.h"
#include "obs/mem.h"

namespace pasa {
namespace obs {
namespace {

// `completed_wall_micros` is the steady completion time moved onto the
// wall clock by the two clocks' offset at export.
void AppendTrace(std::string* out, const ProvenanceRecord& record,
                 const std::vector<CollectedSpan>& spans, double seconds,
                 int64_t completed_wall_micros) {
  *out += "{\"trace_id\": \"" + TraceIdHex(record.trace_id) + "\"";
  *out += ", \"rid\": " + std::to_string(record.rid);
  *out += ", \"outcome\": \"";
  *out += RequestOutcomeName(record.outcome);
  *out += "\"";
  *out += ", \"total_seconds\": " + JsonNumber(seconds);
  *out += ", \"completed_wall_micros\": " +
          std::to_string(completed_wall_micros);
  *out += ", \"spans\": [";
  bool first = true;
  for (const CollectedSpan& span : spans) {
    if (!first) *out += ", ";
    first = false;
    *out += "{\"span_id\": \"" + TraceIdHex(span.span_id) + "\"";
    *out += ", \"parent_span_id\": \"" + TraceIdHex(span.parent_span_id) +
            "\"";
    *out += ", \"path\": \"" + JsonEscape(span.path) + "\"";
    *out += ", \"start_micros\": " + JsonNumber(span.start_micros);
    *out += ", \"duration_micros\": " + JsonNumber(span.duration_micros);
    *out += "}";
  }
  *out += "]}";
}

}  // namespace

TailTraceRing& TailTraceRing::Global() {
  static TailTraceRing* ring = new TailTraceRing();
  return *ring;
}

void TailTraceRing::Offer(const ProvenanceRecord& record,
                          const std::vector<CollectedSpan>& spans,
                          double seconds, uint64_t now_micros) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  EvictExpired(now_micros);
  if (record.outcome != RequestOutcome::kServed) {
    anomalies_.push_back(Kept{record, spans, seconds, now_micros});
    if (anomalies_.size() > kAnomalyCapacity) {
      anomalies_.pop_front();
      anomalies_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (slowest_.size() < kSlowestCapacity ||
      seconds > slowest_.back().seconds) {
    // Insert keeping the vector sorted slowest-first, then trim.
    const auto pos = std::upper_bound(
        slowest_.begin(), slowest_.end(), seconds,
        [](double v, const Kept& kept) { return v > kept.seconds; });
    slowest_.insert(pos, Kept{record, spans, seconds, now_micros});
    if (slowest_.size() > kSlowestCapacity) slowest_.pop_back();
  }
}

void TailTraceRing::EvictExpired(uint64_t now_micros) {
  const uint64_t horizon =
      now_micros > kWindowMicros ? now_micros - kWindowMicros : 0;
  std::erase_if(slowest_, [horizon](const Kept& kept) {
    return kept.completed_micros < horizon;
  });
}

std::string TailTraceRing::ExportJson(uint64_t now_micros) {
  const int64_t wall_now =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const int64_t offset = wall_now - static_cast<int64_t>(now_micros);
  const auto append = [offset](std::string* out, const Kept& kept) {
    AppendTrace(out, kept.record, kept.spans, kept.seconds,
                offset + static_cast<int64_t>(kept.completed_micros));
  };
  std::lock_guard<std::mutex> lock(mu_);
  EvictExpired(now_micros);
  std::string out =
      "{\"window_seconds\": " + JsonNumber(kWindowMicros / 1e6) +
      ",\n\"slowest\": [";
  bool first = true;
  for (const Kept& kept : slowest_) {
    out += first ? "\n " : ",\n ";
    first = false;
    append(&out, kept);
  }
  out += "\n],\n\"anomalies\": [";
  first = true;
  // Newest anomaly first: the interesting one when debugging live.
  for (auto it = anomalies_.rbegin(); it != anomalies_.rend(); ++it) {
    out += first ? "\n " : ",\n ";
    first = false;
    append(&out, *it);
  }
  out += "\n]}\n";
  return out;
}

size_t TailTraceRing::slowest_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_.size();
}

size_t TailTraceRing::anomaly_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return anomalies_.size();
}

uint64_t TailTraceRing::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes =
      static_cast<uint64_t>(slowest_.capacity() + anomalies_.size()) *
      sizeof(Kept);
  const auto add = [&bytes](const Kept& kept) {
    bytes += RecordApproxBytes(kept.record);
    bytes += static_cast<uint64_t>(kept.spans.capacity()) *
             sizeof(CollectedSpan);
    for (const CollectedSpan& span : kept.spans) {
      bytes += StringApproxBytes(span.path);
    }
  };
  std::for_each(slowest_.begin(), slowest_.end(), add);
  std::for_each(anomalies_.begin(), anomalies_.end(), add);
  return bytes;
}

void TailTraceRing::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  slowest_.clear();
  anomalies_.clear();
  anomalies_dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace pasa
