#ifndef PASA_OBS_TRACE_H_
#define PASA_OBS_TRACE_H_

#include <chrono>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace pasa {
namespace obs {

/// RAII phase timer that folds its lifetime into the global registry's span
/// aggregate, together with its self time: the lifetime minus that of every
/// span that closed inside it on the same thread (what GET /profile folds,
/// see ExportFolded). Spans nest per thread: a span opened while another is
/// active on the same thread records under "<parent_path>/<name>", so
///
///   ScopedSpan outer("csp/advance_snapshot", ScopedSpan::kRoot);
///   ScopedSpan inner("repair");   // records as csp/advance_snapshot/repair
///
/// Pass kRoot to anchor a span at the top level regardless of any enclosing
/// span — used by subsystem entry points (e.g. "bulk_dp") whose exported
/// names must be stable no matter which caller reached them.
///
/// A span constructed while the layer is disabled stays inert for its whole
/// lifetime, even if the layer is re-enabled before it closes.
///
/// When the global TraceEventSink is active (see obs/trace_sink.h), each
/// span additionally emits paired begin/end timeline events, so the same
/// instrumentation feeds both the aggregate SpanStats and the Chrome
/// trace_event export.
///
/// When a distributed TraceContext is active on the thread (see
/// obs/trace_context.h), the span also allocates a span id, parents itself
/// under the context's current span, stamps its trace identity onto the
/// emitted timeline events, and on close appends itself to the span tree
/// of the request record open on the thread, if that record collects spans
/// (ScopedProvenanceRecord::CollectSpan). With no context active this
/// costs one thread-local read.
class ScopedSpan {
 public:
  enum Anchor { kNested, kRoot };

  explicit ScopedSpan(std::string_view name, Anchor anchor = kNested);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Full '/'-joined path this span records under (empty when inert).
  const std::string& path() const { return path_; }

  /// Distributed-trace identity (0 when no context was active).
  uint64_t span_id() const { return span_id_; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  bool active_ = false;
  bool flow_in_ = false;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
};

/// RAII latency sampler: observes its own lifetime (in seconds) into a
/// histogram on destruction, covering every exit path of the enclosing
/// scope. Inert when the layer is disabled at construction.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& histogram)
      : histogram_(histogram), active_(Enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedHistogramTimer() {
    if (!active_) return;
    histogram_.Observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram& histogram_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// Path of the innermost span currently open on this thread ("" if none).
/// Exposed for tests and for instrumentation that wants to attach
/// aggregated phases under the active span.
const std::string& CurrentSpanPath();

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_TRACE_H_
