#ifndef PASA_OBS_TAIL_TRACE_H_
#define PASA_OBS_TAIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/provenance.h"
#include "obs/window.h"

namespace pasa {
namespace obs {

/// Always-on tail-trace capture: a selection over finished request records.
/// It keeps the records, each with its span tree, of the kSlowestCapacity
/// slowest requests inside a sliding kWindowMicros window, plus a bounded
/// ring of the kAnomalyCapacity most recent anomalous (non-served)
/// requests. FinishRequest offers every traced request; the selection is
/// served at GET /trace on the admin plane and by `pasa_cli slowest`.
///
/// Time is the steady clock FinishRequest books its windows and SLOs at;
/// the export derives each record's wall-clock completion time when it is
/// read. The disarmed check (`enabled()`) is a single relaxed atomic load;
/// the armed path takes a mutex, which is fine on the single-threaded
/// serving loop and still cheap elsewhere.
class TailTraceRing {
 public:
  static constexpr size_t kSlowestCapacity = 8;
  static constexpr size_t kAnomalyCapacity = 32;
  static constexpr uint64_t kWindowMicros = 60'000'000;

  static TailTraceRing& Global();

  TailTraceRing() = default;
  TailTraceRing(const TailTraceRing&) = delete;
  TailTraceRing& operator=(const TailTraceRing&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Offers one finished request: its record, its span tree, the latency
  /// it is ranked by (`seconds`) and its steady completion time
  /// `now_micros`, which first evicts the slowest entries that have left
  /// the window. The record and spans are copied only when kept: when the
  /// request is anomalous (outcome != kServed), or slower than the
  /// window's current N-th slowest. No-op when disabled.
  void Offer(const ProvenanceRecord& record,
             const std::vector<CollectedSpan>& spans, double seconds,
             uint64_t now_micros);

  /// {"window_seconds":…, "slowest":[…], "anomalies":[…]} — slowest first,
  /// anomalies newest first. Each trace carries its hex trace id, rid,
  /// outcome, ranking latency, wall-clock completion time and span tree.
  /// The export first evicts the slowest entries that finished before
  /// `now_micros` - kWindowMicros, so the list never outlives its window
  /// once traffic (and with it Offer) stops.
  std::string ExportJson() { return ExportJson(NowMicros()); }
  std::string ExportJson(uint64_t now_micros);

  size_t slowest_size() const;
  size_t anomaly_size() const;

  /// Anomalous records overwritten because the bounded anomaly ring was
  /// full — the tail-trace sibling of obs/trace_dropped_events, exported
  /// as the obs/tail_trace_dropped counter so silent ring saturation is
  /// visible on /metrics.
  uint64_t anomalies_dropped() const {
    return anomalies_dropped_.load(std::memory_order_relaxed);
  }

  /// Approximate heap bytes held by the retained records (span trees
  /// included) — memory accounting, obs/mem.h.
  uint64_t ApproxBytes() const;

  void Reset();

 private:
  struct Kept {
    ProvenanceRecord record;
    std::vector<CollectedSpan> spans;
    double seconds = 0.0;            ///< the ranking latency
    uint64_t completed_micros = 0;  ///< steady clock, see NowMicros
  };

  /// Drops the slowest entries completed before now_micros -
  /// kWindowMicros. Caller holds mu_.
  void EvictExpired(uint64_t now_micros);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> anomalies_dropped_{0};
  mutable std::mutex mu_;
  std::vector<Kept> slowest_;   ///< sorted, slowest first
  std::deque<Kept> anomalies_;  ///< newest last
};

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_TAIL_TRACE_H_
