#ifndef PASA_OBS_TRACE_CONTEXT_H_
#define PASA_OBS_TRACE_CONTEXT_H_

#include <cstdint>
#include <string>

namespace pasa {
namespace obs {

/// Per-request distributed trace identity. A context is carried across the
/// wire (net wire v2 trace-context extension), installed in a thread-local
/// slot for the duration of one request, and consumed by every ScopedSpan
/// opened while it is active: each span allocates a span id, parents itself
/// under `span_id`, and advances the slot so nesting is tracked without the
/// spans knowing about each other.
///
/// `trace_id == 0` means "no context"; ids are never allocated as zero.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  ///< innermost open span; parent of the next child
  /// Adopted from a remote peer (decoded off the wire, not locally
  /// originated). The first span opened under a remote context emits a
  /// flow-finish event so the Chrome-trace exporter can draw the
  /// cross-process arrow; opening that span clears the flag.
  bool remote = false;

  bool valid() const { return trace_id != 0; }
};

/// Fresh process-unique ids: a SplitMix64 stream seeded from the wall clock
/// and pid at startup, so two processes on the same host do not collide.
uint64_t NewTraceId();
uint64_t NewSpanId();

/// Canonical text form of a trace/span id: 16 lowercase hex digits. Used in
/// trace args, exemplar labels, audit JSONL and the loadgen latency log so
/// offline joins work by exact string match.
std::string TraceIdHex(uint64_t id);
/// Parses TraceIdHex output (also accepts shorter hex strings); 0 on error.
uint64_t TraceIdFromHex(const std::string& hex);

/// The thread's current trace, or nullptr when none is active. One
/// thread-local read — this is the disarmed fast path ScopedSpan takes.
TraceContext* MutableCurrentTraceContext();

/// Read-only view; returns a zero (invalid) context when none is active.
const TraceContext& CurrentTraceContext();

/// RAII: installs `ctx` as the thread's current trace for the scope and
/// restores whatever was active before on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_TRACE_CONTEXT_H_
