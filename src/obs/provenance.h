#ifndef PASA_OBS_PROVENANCE_H_
#define PASA_OBS_PROVENANCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tree_path.h"
#include "obs/json.h"
#include "obs/trace_context.h"

namespace pasa {
namespace obs {

/// How one request left the serving path. An anonymize-only request (the
/// wire protocol's AnonymizeRequest) makes no LBS hop: it ends kServed with
/// zero lbs_attempts once cloaked, or kRejected with its status.
enum class RequestOutcome : uint8_t {
  kServed = 0,    ///< fresh answer (cache hit or provider fetch), or cloaked
  kDegraded = 1,  ///< served stale from the cache while the provider was down
  kFailed = 2,    ///< provider down and no fallback: the request was lost
  kRejected = 3,  ///< invalid w.r.t. the current snapshot (client error)
};

/// Short stable name ("served", "degraded", "failed", "rejected").
const char* RequestOutcomeName(RequestOutcome outcome);

/// Inverse of RequestOutcomeName; InvalidArgument on anything else.
Result<RequestOutcome> ParseRequestOutcome(std::string_view name);

/// Everything needed to reconstruct one request's cloak decision and its
/// trip through the serving path after the fact: which policy-tree node
/// cloaked the sender and why it is k-anonymous (group size, C(m) summary),
/// plus how the LBS hop went (cache, retries, breaker, fault fires) and
/// where the latency was spent. Cumulative metrics answer "how is serving
/// doing"; a ProvenanceRecord answers "why did request #4217 get THIS
/// cloak, and was it degraded".
///
/// Serialized as one JSONL object per record (`pasa_cli --audit-out`), with
/// doubles printed exactly (%.17g) so a written audit file parses back
/// field-for-field equal.
///
/// A fixed-size value: the status is a code, the tree path a packed word,
/// and only fault_fires, empty unless a fault fired, holds heap. Names are
/// rendered when the record is serialized. Fields are ordered by size, so
/// the struct has no padding holes (sizeof is 200 B; the armed ring holds
/// 65,536 of them).
struct ProvenanceRecord {
  // Identity. rid is 0 for requests rejected before a cloak was assigned.
  int64_t rid = 0;
  int64_t sender = 0;
  /// Distributed trace id of the request (see obs/trace_context.h); 0 when
  /// the request was not traced. Serialized as a 16-char lowercase hex
  /// string in JSONL so offline joins against the loadgen latency log and
  /// the merged Perfetto timeline need no 64-bit-precision JSON parsing.
  uint64_t trace_id = 0;

  // The cloak decision. The cloak rectangle is stored as raw coordinates so
  // pasa_obs stays dependency-free; callers copy from geo::Rect.
  int64_t cloak_x1 = 0;
  int64_t cloak_y1 = 0;
  int64_t cloak_x2 = 0;
  int64_t cloak_y2 = 0;
  int64_t cloak_area = 0;
  uint64_t group_size = 0;     ///< candidate senders sharing this cloak
  uint64_t passed_up = 0;      ///< C(node): locations passed above the node
  TreePath tree_path;          ///< root-to-node turns, rendered "r.0.1"

  // The LBS hop.
  double lbs_simulated_micros = 0.0;  ///< injected latency + backoff consumed
  /// Injection points that fired while serving this request, with fire
  /// counts; kept sorted by point name (see AddFaultFire).
  std::vector<std::pair<std::string, uint32_t>> fault_fires;

  // Per-phase latency breakdown, wall seconds.
  double total_seconds = 0.0;
  double cloak_seconds = 0.0;  ///< validate + policy lookup
  double lbs_seconds = 0.0;    ///< cache + resilient fetch

  // Network front-end phases (zero for in-process requests): wire decode,
  // time spent queued behind admission control, and response encode+write.
  double net_decode_seconds = 0.0;
  double net_queue_seconds = 0.0;
  double net_encode_seconds = 0.0;

  int32_t k = 0;
  int32_t policy_node = -1;    ///< cloaking tree node id
  int32_t node_depth = -1;
  uint32_t lbs_attempts = 0;
  uint32_t lbs_retries = 0;

  RequestOutcome outcome = RequestOutcome::kRejected;
  StatusCode status = StatusCode::kOk;  ///< final status (StatusCodeName)
  bool cache_hit = false;
  bool stale_fallback = false;     ///< degraded: overlapping cached answer
  bool breaker_rejected = false;   ///< failed fast at the open breaker
  bool deadline_exceeded = false;

  friend bool operator==(const ProvenanceRecord& a,
                         const ProvenanceRecord& b) = default;
};

/// One closed span of a traced request, as collected by the request's
/// ScopedProvenanceRecord: enough to rebuild the span tree (parent links)
/// with timings, without the TraceEventSink machinery.
struct CollectedSpan {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root (or remote parent)
  std::string path;
  double start_micros = 0.0;  ///< relative to the record's open
  double duration_micros = 0.0;
};

/// Counts one fire of `point` on the record, keeping fault_fires sorted by
/// point name (which JSON-object round-trips preserve).
void AddFaultFire(ProvenanceRecord* record, std::string_view point);

/// Approximate heap bytes held by the record's fault fires (not counting
/// sizeof(ProvenanceRecord)) — memory accounting, obs/mem.h.
uint64_t RecordApproxBytes(const ProvenanceRecord& record);

/// One JSONL line (no trailing newline). Doubles use %.17g, so parsing the
/// line back yields bit-identical values.
std::string ProvenanceToJsonl(const ProvenanceRecord& record);

/// Parses one record from a parsed JSON object. Unknown members are
/// ignored; missing members keep their defaults; a malformed `outcome`, an
/// unknown `status` name or a malformed `tree_path` is InvalidArgument.
Result<ProvenanceRecord> ProvenanceFromJson(const json::Value& value);

/// Parses a whole JSONL audit document (blank lines skipped); an error
/// names the line it was found on.
Result<std::vector<ProvenanceRecord>> ParseProvenanceJsonl(
    std::string_view text);

/// Reads and parses `path`; NotFound when the file cannot be read.
Result<std::vector<ProvenanceRecord>> ReadProvenanceJsonlFile(
    const std::string& path);

/// Bounded ring of the most recent ProvenanceRecords, in the spirit of the
/// TraceEventSink but overwrite-oldest instead of drop-newest (an audit
/// wants the freshest requests). Disabled by default; the serving path's
/// only disarmed cost is a few relaxed loads in ScopedProvenanceRecord plus
/// null-pointer checks at annotation sites (gated by bench_overhead).
/// Appends serialize on a mutex — the critical section is one vector-slot
/// move (a copy of the fixed-size record), so the armed path stays
/// lock-light and TSan-clean.
class ProvenanceRing {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  /// The process-wide ring (armed by `pasa_cli --audit-out`).
  static ProvenanceRing& Global();

  ProvenanceRing();
  ~ProvenanceRing();
  ProvenanceRing(const ProvenanceRing&) = delete;
  ProvenanceRing& operator=(const ProvenanceRing&) = delete;

  /// Clears the ring and starts recording, keeping the most recent
  /// `capacity` records. Reserves the whole ring at once, so no Append
  /// allocates.
  void Enable(size_t capacity = kDefaultCapacity);

  /// Stops recording; the collected records stay readable.
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Discards all records (capacity is kept).
  void Clear();

  /// Stores one record, overwriting the oldest when full. No-op while
  /// disabled. When streaming is armed, also writes the record's JSONL
  /// line to the stream before it can be overwritten.
  void Append(ProvenanceRecord record);

  /// Arms append-on-record streaming: every Append from now on writes its
  /// JSONL line straight to `path` (parent directories created, file
  /// truncated), so long runs keep records the ring has overwritten.
  /// NotFound when the file cannot be opened.
  Status StreamTo(const std::string& path);

  /// Flushes and closes the stream; the ring keeps recording.
  void StopStreaming();

  bool streaming() const;
  /// Records written to the stream since StreamTo.
  uint64_t streamed() const;

  size_t size() const;
  size_t capacity() const;
  /// Total records ever appended since Enable/Clear, including overwritten.
  uint64_t total_appended() const;
  uint64_t overwritten() const;

  /// The retained records, oldest first.
  std::vector<ProvenanceRecord> Records() const;

  /// Approximate heap bytes held by the ring: the record array plus every
  /// retained record's fault fires (memory accounting, obs/mem.h).
  uint64_t ApproxBytes() const;

  /// Writes the retained records as JSONL (creating parent directories).
  Status WriteJsonlFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<ProvenanceRecord> ring_;  ///< reserved at capacity_, then wraps
  size_t capacity_ = kDefaultCapacity;
  uint64_t appended_ = 0;
  /// Append-on-record JSONL sink (pimpl'd so this header stays stream-free).
  struct Stream;
  std::unique_ptr<Stream> stream_;
  uint64_t streamed_ = 0;
};

/// The record the current thread is building, or nullptr when no
/// ScopedProvenanceRecord is open or no consumer of the record (the ring,
/// the windows, the SLO tracker, the tail-trace ring) was armed when it
/// opened. Lower layers (Anonymizer, CachingLbsFrontend,
/// ResilientLbsClient) annotate through this instead of threading a record
/// through every signature:
///
///   if (obs::ProvenanceRecord* p = obs::CurrentProvenance()) {
///     p->cache_hit = true;
///   }
ProvenanceRecord* CurrentProvenance();

/// Derives every per-request signal from one finished record, so each
/// request's telemetry is built once:
///   - records with a cloak phase (cloak_seconds, stamped with lbs_seconds
///     by CspServer::HandleRequest): the csp/handle_request_seconds
///     histogram (cloak + lbs), the csp/window/serve_latency_seconds and
///     csp/window/degraded_rate windows, and the csp/availability,
///     csp/serve_latency and csp/anonymity SLOs (rejected requests are
///     client errors and burn no SLO);
///   - records with network phases (net_*_seconds, stamped by the network
///     front end): net/serve_latency_seconds (decode + queue + total, with
///     the trace id as exemplar), net/queue_wait_seconds, their two windows
///     and the net/serve_latency SLO;
///   - traced records: an offer of the record and its `spans` to the
///     tail-trace ring, keyed by the client-observed latency (the net
///     latency above when the record has net phases, total_seconds
///     otherwise);
///   - every record: the provenance ring, which takes `record` by move.
/// `now_micros` (steady-clock micros, see NowMicros) is the time the
/// windows, the SLOs and the tail ring book the request at. Called once
/// per request by ScopedProvenanceRecord::Finish; tests call it with
/// explicit times.
void FinishRequest(ProvenanceRecord&& record,
                   std::vector<CollectedSpan> spans, uint64_t now_micros);

/// RAII per-request record, opened by every serving entry point
/// (NetServer::Dispatch, CspServer::HandleRequest, the CLI's sampled-request
/// loop). Only the outermost scope on a thread owns a record: a scope
/// opened inside another one resolves to the outer record and finishes
/// nothing, so the outermost entry point wins. The record always carries
/// the phase timings the latency histograms derive from; it is exposed to
/// lower layers via CurrentProvenance() only while a consumer is armed.
/// While the tail-trace ring is armed, the outermost scope also collects
/// the span tree of its traced request: every ScopedSpan with a trace id
/// that closes inside the scope appends itself (CollectSpan). Finish
/// (or, failing that, the destructor) stamps total_seconds and hands the
/// record and its spans to FinishRequest.
class ScopedProvenanceRecord {
 public:
  ScopedProvenanceRecord();
  ~ScopedProvenanceRecord() { Finish(); }

  ScopedProvenanceRecord(const ScopedProvenanceRecord&) = delete;
  ScopedProvenanceRecord& operator=(const ScopedProvenanceRecord&) = delete;

  /// True for the outermost scope while a consumer is armed.
  bool active() const { return outermost_ && armed_; }
  /// This scope's record while active, nullptr otherwise.
  ProvenanceRecord* get() { return active() ? &record_ : nullptr; }
  /// The request's record, armed or not: this scope's when outermost, the
  /// enclosing scope's otherwise. Entry points stamp phase timings here.
  ProvenanceRecord& record() { return *request_; }

  /// The spans collected so far in close order, each child before its
  /// parent (empty unless this is the outermost scope and the tail ring
  /// was armed at open).
  const std::vector<CollectedSpan>& spans() const { return spans_; }

  /// Outermost scope only: stamps total_seconds and calls FinishRequest
  /// with the record and its collected spans. Runs at most once; a nested
  /// scope's call does nothing.
  void Finish();

  /// Appends one closed traced span (opened at `start`, open for
  /// `seconds`) to the outermost record open on this thread, when that
  /// record collects spans; otherwise a no-op. Called by ScopedSpan's
  /// destructor.
  static void CollectSpan(uint64_t span_id, uint64_t parent_span_id,
                          const std::string& path,
                          std::chrono::steady_clock::time_point start,
                          double seconds);

 private:
  bool outermost_;
  bool armed_ = false;
  bool collects_spans_ = false;
  ProvenanceRecord* request_;
  ProvenanceRecord record_;
  std::vector<CollectedSpan> spans_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_PROVENANCE_H_
