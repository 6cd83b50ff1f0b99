#ifndef PASA_NET_SERVER_H_
#define PASA_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "csp/server.h"
#include "net/http.h"
#include "net/wire.h"

namespace pasa {
namespace net {

/// Well-known objective name for event-loop saturation: the busy time of
/// each worked loop iteration, tracked as a latency objective so burn-rate
/// alerting fires when the single-threaded loop stops keeping up.
inline constexpr char kSloNetLoopSaturation[] = "net/loop_saturation";

/// Tuning for the network front end.
struct NetServerOptions {
  /// TCP port to listen on; 0 picks a free port (read it back via port()).
  uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed.
  size_t max_connections = 1024;
  /// Bounded pending-request queue: decoded requests waiting for a
  /// dispatch slot. When full, new requests are rejected with kUnavailable
  /// + retry_after_micros instead of queueing without bound.
  size_t max_pending = 4096;
  /// Requests dispatched into CspServer per event-loop tick; bounds how
  /// long the loop stays away from the sockets.
  size_t max_batch = 256;
  /// Retry-after hint carried by admission-control rejections.
  uint64_t retry_after_micros = 1000;
  /// Graceful-drain budget on shutdown: the server stops accepting, keeps
  /// dispatching the already-admitted pending queue for at most this long,
  /// then answers whatever is still queued with a typed kUnavailable.
  /// Request frames decoded while draining are rejected the same way
  /// instead of extending the drain. 0 fails the whole queue immediately.
  double drain_deadline_seconds = 1.0;
  /// Emits OpenMetrics exemplars on /metrics histogram buckets, pointing at
  /// the trace id of each bucket's slowest traced request.
  bool exemplars = false;
  /// Admin (operator) plane: when >= 0, a second loopback listener on this
  /// port (0 picks a free one, read back via admin_port()) serves HTTP GETs
  /// on the same event loop — /metrics, /healthz, /slo, /vars, /memory,
  /// /trace, /profile. Admin traffic is operator plane throughout: its
  /// connections do not count against max_connections, its requests are
  /// answered inline (never queued behind admission control), and the
  /// net/* fault injection points skip it, so telemetry stays reachable
  /// exactly when the serving plane is overloaded or being tortured.
  int admin_port = -1;
};

/// Single-threaded non-blocking network front end for CspServer: one
/// level-triggered epoll loop (Linux only) accepts connections, feeds
/// their byte streams through per-connection FrameDecoders, batches
/// decoded requests into CspServer calls once per tick, and writes
/// length-prefixed responses back — tolerating partial reads, torn writes
/// and hostile frames on every connection.
///
/// All CspServer calls happen on the loop thread, so the (single-threaded)
/// CSP needs no locking. Backpressure is a bounded pending-request queue:
/// when it is full, serve/anonymize/advance requests get a typed
/// kUnavailable Error frame with a retry-after hint (admission control)
/// while Health/Stats/Shutdown — the operator plane — bypass admission.
///
/// With NetServerOptions::admin_port set, the same event loop additionally
/// serves a live HTTP telemetry plane (GET /metrics, /healthz, /slo,
/// /vars, /memory, /trace, /profile) on a second loopback listener; admin
/// traffic follows the operator-plane bypass rules (no max_connections
/// cap, no admission queue, no net/* fault injection).
///
/// Tail-trace capture is always on: Start arms the global
/// obs::TailTraceRing, so every dispatched request is traced (adopting the
/// client's wire context when present, originating one otherwise) and its
/// record and span tree compete for the ring's slowest-N window, served at
/// GET /trace and by `pasa_cli slowest`. Anomalous (non-served) requests
/// are always kept.
///
/// Observability: per-connection/per-frame counters in the MetricsRegistry
/// ("net/..."), and one ScopedProvenanceRecord per serve or anonymize
/// request spanning decode -> serve -> encode, from which
/// obs::FinishRequest derives the latency histograms, the sliding windows
/// and the obs::kSloNetServeLatency SLO. Fault injection:
/// net/slow_read (reads deliver one byte), net/torn_write (responses are
/// written half a frame at a time), net/conn_drop (the connection is
/// severed right before its response) — none of which may ever weaken
/// k-anonymity, only latency and availability.
class NetServer {
 public:
  /// Binds, listens and spawns the event loop. The returned server is
  /// already serving.
  static Result<std::unique_ptr<NetServer>> Start(
      CspServer* csp, const NetServerOptions& options);

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// The bound admin-plane port; 0 when no admin listener was requested.
  uint16_t admin_port() const { return admin_port_; }

  /// Signals the loop to finish and joins it. Idempotent.
  void Stop();

  /// Blocks until the loop exits (a kShutdownRequest frame or Stop()), at
  /// most `timeout_seconds`. Returns true when the loop has exited.
  bool WaitForShutdown(double timeout_seconds);

  /// Monotonic counters, readable from any thread.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;   ///< includes drops and rejects
    uint64_t connections_rejected = 0; ///< over max_connections
    uint64_t frames_decoded = 0;
    uint64_t frames_rejected = 0;      ///< garbage/oversized/unknown frames
    uint64_t requests_served = 0;      ///< responses written (incl. errors)
    uint64_t admission_rejected = 0;   ///< kUnavailable, queue full
    uint64_t drain_rejected = 0;       ///< kUnavailable, arrived mid-drain
    uint64_t drain_expired = 0;        ///< kUnavailable, drain deadline hit
    uint64_t faults_injected = 0;      ///< net/* fault fires
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t write_calls = 0;          ///< send() calls that wrote bytes
    uint64_t admin_connections = 0;    ///< admin-plane accepts
    uint64_t admin_requests = 0;       ///< HTTP requests answered
  };
  Stats stats() const;

 private:
  /// epoll_event.data.u64 tags: a connection's tag is its id, and the
  /// three fixed fds take the values below the first id.
  static constexpr uint64_t kListenTag = 0;
  static constexpr uint64_t kAdminListenTag = 1;
  static constexpr uint64_t kWakeTag = 2;
  static constexpr uint64_t kFirstConnId = 3;

  /// Per-connection state.
  struct Conn {
    /// Never reused, unlike the fd; also the connection's epoll tag, so a
    /// readiness event reaches only the connection it was registered for.
    uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    std::string outbuf;        ///< encoded responses awaiting write
    size_t out_offset = 0;     ///< bytes of outbuf already written
    bool close_after_flush = false;
    /// EPOLLOUT armed: set only while a send() is blocked on a full socket
    /// buffer, so epoll_ctl runs only when the wanted state changes.
    bool write_interest = false;
    /// Listed in dirty_: the loop owes this connection a flush.
    bool dirty = false;
    /// Admin-plane connection: bytes go through `http` instead of
    /// `decoder`, and the net/* fault injection points skip it.
    bool is_admin = false;
    std::unique_ptr<HttpParser> http;  ///< set iff is_admin
  };

  /// One admitted request waiting for a dispatch slot.
  struct Pending {
    uint64_t conn_id = 0;
    Frame frame;
    double decode_seconds = 0.0;
    std::chrono::steady_clock::time_point enqueued;
  };

  NetServer(CspServer* csp, const NetServerOptions& options);

  void Loop();
  /// Loop-saturation telemetry for one worked tick (events or dispatches):
  /// records the tick's busy seconds and the post-tick queue depth into the
  /// net/loop_lag_seconds histogram, the sliding windows and the
  /// net/loop_saturation SLO.
  void RecordLoopTick(double busy_seconds);
  /// Pulls every subsystem's bytes into the global accountant (the net/*
  /// counters from conns_ and pending_, the CSP's and the obs rings' from
  /// their ApproxBytes) and publishes the mem/* gauges. Run by each admin
  /// read that shows memory (/metrics, /memory, /vars), never by the loop.
  void RefreshMemoryTelemetry();
  /// Accepts every pending connection on the serving (`admin` false) or the
  /// admin listener. Only the serving plane is capped at max_connections:
  /// the operator plane must stay reachable under overload.
  void AcceptConnections(bool admin);
  void HandleReadable(Conn* conn);
  /// Parses and answers as many HTTP requests as the admin connection's
  /// buffer holds, inline on the loop thread (admission bypass).
  void DrainHttp(Conn* conn);
  /// Routes one parsed admin request (/metrics, /healthz, /slo, /vars,
  /// /trace, /profile) and queues the response.
  void HandleAdminRequest(Conn* conn, const HttpRequest& request);
  /// Decodes as many frames as the connection's buffer holds, admitting
  /// request frames and answering the operator plane inline.
  void DrainDecoder(Conn* conn);
  /// Routes one admitted frame through CspServer and encodes the response.
  void Dispatch(const Pending& pending);
  void DispatchBatch();
  /// Drain deadline expired: answers every still-queued request with a
  /// typed kUnavailable so no client hangs on a dying server.
  void FailPendingUnavailable();
  /// Appends an encoded response frame to the connection's outbuf.
  void QueueResponse(Conn* conn, MsgType type, const std::string& payload);
  void QueueError(Conn* conn, const Status& status, uint64_t retry_after);
  /// Writes as much of the outbuf as the socket takes. What is left waits
  /// for EPOLLOUT (socket full) or, after a net/torn_write tear, for the
  /// next FlushDirty.
  void FlushConn(Conn* conn);
  /// Lists the connection in dirty_ (once) for the next FlushDirty.
  void MarkDirty(Conn* conn);
  /// Flushes every connection listed in dirty_ once, skipping those whose
  /// socket is full (EPOLLOUT resumes them). Tears made during this pass
  /// are listed again for the next one.
  void FlushDirty();
  /// Arms or disarms the connection's EPOLLOUT, calling epoll_ctl only
  /// when the state changes.
  void SetWriteInterest(Conn* conn, bool on);
  void CloseConn(uint64_t conn_id);
  Conn* FindConn(uint64_t conn_id);

  CspServer* const csp_;
  const NetServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  uint16_t admin_port_ = 0;
  int admin_listen_fd_ = -1;  ///< -1 when the admin plane is disabled
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: Stop() wakes epoll_wait
  int epoll_fd_ = -1;

  std::map<uint64_t, Conn> conns_;  ///< by conn id; loop thread only
  std::deque<Pending> pending_;  ///< loop thread only
  /// Connections the loop owes a flush without waiting for epoll (the
  /// remainders of net/torn_write tears), by conn id (Conn::dirty
  /// dedupes). Loop thread only.
  std::vector<uint64_t> dirty_;
  uint64_t next_conn_id_ = kFirstConnId;
  uint64_t loop_ticks_ = 0;  ///< worked ticks; loop thread only
  /// When the loop was spawned; /healthz uptime.
  std::chrono::steady_clock::time_point started_at_;
  bool stopping_ = false;  ///< drain outbufs, then exit (loop thread only)
  /// First tick that saw stopping_; anchors drain_deadline_seconds (loop
  /// thread only).
  std::optional<std::chrono::steady_clock::time_point> drain_started_;

  std::thread loop_;
  std::atomic<bool> stop_requested_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool loop_exited_ = false;

  // Stats counters (atomics: written by the loop, read from any thread).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> frames_decoded_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> admission_rejected_{0};
  std::atomic<uint64_t> drain_rejected_{0};
  std::atomic<uint64_t> drain_expired_{0};
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> admin_connections_{0};
  std::atomic<uint64_t> admin_requests_{0};
};

}  // namespace net
}  // namespace pasa

#endif  // PASA_NET_SERVER_H_
