#include "obs/trace.h"

#include <vector>

#include "obs/provenance.h"
#include "obs/trace_context.h"
#include "obs/trace_sink.h"

namespace pasa {
namespace obs {
namespace {

// The spans open on this thread, innermost last: each one's full path and
// the seconds of every span that closed directly inside it (its children,
// whatever their anchor), so a closing span can book its self time.
struct OpenSpan {
  std::string path;
  double child_seconds = 0.0;
};
thread_local std::vector<OpenSpan> tls_span_stack;
const std::string kEmptyPath;

}  // namespace

ScopedSpan::ScopedSpan(std::string_view name, Anchor anchor) {
  if (!Enabled()) return;
  active_ = true;
  if (anchor == kNested && !tls_span_stack.empty()) {
    const std::string& parent = tls_span_stack.back().path;
    path_.reserve(parent.size() + 1 + name.size());
    path_ = parent;
    path_ += '/';
    path_ += name;
  } else {
    path_ = std::string(name);
  }
  tls_span_stack.push_back(OpenSpan{path_});
  // One thread-local read while no distributed trace is active (the common
  // case); with a context, take over as the innermost span.
  if (TraceContext* ctx = MutableCurrentTraceContext()) {
    trace_id_ = ctx->trace_id;
    parent_span_id_ = ctx->span_id;
    span_id_ = NewSpanId();
    flow_in_ = ctx->remote;
    ctx->remote = false;
    ctx->span_id = span_id_;
  }
  TraceEventSink& sink = TraceEventSink::Global();
  if (sink.active()) {
    if (trace_id_ != 0) {
      sink.RecordSpanEvent(TraceEvent::Type::kBegin, path_, trace_id_,
                           span_id_, parent_span_id_, flow_in_);
    } else {
      sink.Record(TraceEvent::Type::kBegin, path_);
    }
  }
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  TraceEventSink& sink = TraceEventSink::Global();
  if (sink.active()) {
    if (trace_id_ != 0) {
      sink.RecordSpanEvent(TraceEvent::Type::kEnd, path_, trace_id_,
                           span_id_, parent_span_id_, false);
    } else {
      sink.Record(TraceEvent::Type::kEnd, path_);
    }
  }
  const double self_seconds = seconds - tls_span_stack.back().child_seconds;
  tls_span_stack.pop_back();
  if (!tls_span_stack.empty()) tls_span_stack.back().child_seconds += seconds;
  if (trace_id_ != 0) {
    if (TraceContext* ctx = MutableCurrentTraceContext()) {
      ctx->span_id = parent_span_id_;
    }
    ScopedProvenanceRecord::CollectSpan(span_id_, parent_span_id_, path_,
                                        start_, seconds);
  }
  // Record directly (not via RecordSpan) so a span that was open when the
  // layer got disabled still reports its measured time.
  MetricsRegistry::Global().GetSpanStats(path_).Record(seconds, 1,
                                                       self_seconds);
}

const std::string& CurrentSpanPath() {
  return tls_span_stack.empty() ? kEmptyPath : tls_span_stack.back().path;
}

}  // namespace obs
}  // namespace pasa
