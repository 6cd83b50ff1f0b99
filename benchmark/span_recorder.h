#ifndef PASA_BENCHMARK_SPAN_RECORDER_H_
#define PASA_BENCHMARK_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace pasa_bench {

/// The benchmark's own tracer. The traced replay wraps each call into a
/// layer's public function in a span: name, request id, parent, start and
/// end on the steady clock. Spans live in a vector reserved up front and
/// are written once, as a Chrome trace, when the run ends. Nothing here
/// reaches into the program's own telemetry, which later changes are free
/// to reshape.
class SpanRecorder {
 public:
  using SpanId = uint32_t;
  static constexpr SpanId kNoParent = UINT32_MAX;

  explicit SpanRecorder(size_t reserve) { spans_.reserve(reserve); }

  /// Opens a span now. `name` must outlive the recorder (a literal).
  SpanId Begin(const char* name, uint64_t rid, SpanId parent = kNoParent);
  /// Closes `id` now.
  void End(SpanId id);
  /// Renames an open or closed span (e.g. an LBS call classified as a hit
  /// or a miss once it has returned).
  void Rename(SpanId id, const char* name) { spans_[id].name = name; }
  /// Records a span whose bounds were taken by the caller.
  SpanId Add(const char* name, uint64_t rid, SpanId parent, int64_t start_ns,
             int64_t end_ns);

  /// Per span name: number of spans and mean self time in ns (duration
  /// minus the time its direct children cover).
  struct SelfTime {
    size_t count = 0;
    double mean_ns = 0.0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every span as a Chrome trace_event "X" event (ts/dur in us,
  /// with the span id, parent and request id in args).
  pasa::Status WriteChromeTrace(const std::string& path) const;

  /// Steady-clock nanoseconds.
  static int64_t Now();

  /// Mean cost in ns of one Begin/End pair, measured on a scratch recorder.
  static double MeasureSpanCostNs();

 private:
  struct Span {
    const char* name = "";
    uint64_t rid = 0;
    SpanId parent = kNoParent;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  std::vector<Span> spans_;
};

/// Reads a trace written by WriteChromeTrace and checks that every span has
/// self time >= 0 and lies inside its parent.
pasa::Status CheckChromeTrace(const std::string& path);

/// RAII span on an optional recorder: a no-op when `recorder` is null, so
/// one code path serves the traced and the untraced replay.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t rid,
             SpanRecorder::SpanId parent = SpanRecorder::kNoParent)
      : recorder_(recorder),
        id_(recorder == nullptr ? SpanRecorder::kNoParent
                                : recorder->Begin(name, rid, parent)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanRecorder::SpanId id() const { return id_; }
  void Rename(const char* name) {
    if (recorder_ != nullptr) recorder_->Rename(id_, name);
  }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::SpanId id_;
};

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_SPAN_RECORDER_H_
