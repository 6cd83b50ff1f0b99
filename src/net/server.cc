#include "net/server.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "common/timer.h"
#include "fault/injector.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/tail_trace.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/trace_sink.h"
#include "obs/window.h"

#include <optional>

namespace pasa {
namespace net {
namespace {

constexpr size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 128;
constexpr int kMaxEvents = 128;

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(O_NONBLOCK): ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Creates a non-blocking loopback listener on `port` (0 picks a free one)
// and reports the bound port through `bound_port`.
Result<int> ListenOnLoopback(uint16_t port, uint16_t* bound_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::Unavailable(std::string("bind to port ") +
                                         std::to_string(port) + ": " +
                                         std::strerror(errno));
    close(fd);
    return s;
  }
  if (listen(fd, kListenBacklog) < 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status s = Status::Internal(std::string("getsockname: ") +
                                      std::strerror(errno));
    close(fd);
    return s;
  }
  *bound_port = ntohs(addr.sin_port);
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    close(fd);
    return s;
  }
  return fd;
}

// Registers `fd` for level-triggered EPOLLIN under `tag`.
Status Watch(int epoll_fd, int fd, uint64_t tag) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = tag;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::Internal(std::string("epoll_ctl(ADD): ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle.

NetServer::NetServer(CspServer* csp, const NetServerOptions& options)
    : csp_(csp), options_(options) {}

Result<std::unique_ptr<NetServer>> NetServer::Start(
    CspServer* csp, const NetServerOptions& options) {
  if (csp == nullptr) {
    return Status::InvalidArgument("NetServer requires a CspServer");
  }
  if (options.drain_deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "drain_deadline_seconds must be non-negative");
  }
  auto server = std::unique_ptr<NetServer>(new NetServer(csp, options));

  Result<int> listen_fd = ListenOnLoopback(options.port, &server->port_);
  if (!listen_fd.ok()) return listen_fd.status();
  server->listen_fd_ = *listen_fd;

  if (options.admin_port >= 0) {
    Result<int> admin_fd = ListenOnLoopback(
        static_cast<uint16_t>(options.admin_port), &server->admin_port_);
    if (!admin_fd.ok()) return admin_fd.status();
    server->admin_listen_fd_ = *admin_fd;
  }

  if (pipe(server->wake_fds_) < 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  if (Status s = SetNonBlocking(server->wake_fds_[0]); !s.ok()) return s;

  server->epoll_fd_ = epoll_create1(0);
  if (server->epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  const int epoll_fd = server->epoll_fd_;
  if (Status s = Watch(epoll_fd, server->listen_fd_, kListenTag); !s.ok()) {
    return s;
  }
  if (server->admin_listen_fd_ >= 0) {
    if (Status s = Watch(epoll_fd, server->admin_listen_fd_, kAdminListenTag);
        !s.ok()) {
      return s;
    }
  }
  if (Status s = Watch(epoll_fd, server->wake_fds_[0], kWakeTag); !s.ok()) {
    return s;
  }

  obs::SloTracker::Global().EnsureObjective(
      {.name = obs::kSloNetServeLatency,
       .kind = obs::SloObjective::Kind::kLatency,
       .target = 0.99,
       .latency_threshold_seconds = 0.010});
  obs::SloTracker::Global().EnsureObjective(
      {.name = kSloNetLoopSaturation,
       .kind = obs::SloObjective::Kind::kLatency,
       .target = 0.99,
       .latency_threshold_seconds = 0.025});

  obs::TailTraceRing::Global().Enable();

  server->started_at_ = std::chrono::steady_clock::now();
  server->loop_ = std::thread(&NetServer::Loop, server.get());
  obs::LogInfo("net", "listening on 127.0.0.1:%u", unsigned{server->port_});
  if (server->admin_listen_fd_ >= 0) {
    obs::LogInfo("net", "admin plane on http://127.0.0.1:%u",
                 unsigned{server->admin_port_});
  }
  return server;
}

NetServer::~NetServer() {
  Stop();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (admin_listen_fd_ >= 0) close(admin_listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void NetServer::Stop() {
  if (!stop_requested_.exchange(true)) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
  }
  if (loop_.joinable()) loop_.join();
}

bool NetServer::WaitForShutdown(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return loop_exited_; });
}

NetServer::Stats NetServer::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_closed = connections_closed_.load();
  s.connections_rejected = connections_rejected_.load();
  s.frames_decoded = frames_decoded_.load();
  s.frames_rejected = frames_rejected_.load();
  s.requests_served = requests_served_.load();
  s.admission_rejected = admission_rejected_.load();
  s.drain_rejected = drain_rejected_.load();
  s.drain_expired = drain_expired_.load();
  s.faults_injected = faults_injected_.load();
  s.bytes_read = bytes_read_.load();
  s.bytes_written = bytes_written_.load();
  s.write_calls = write_calls_.load();
  s.admin_connections = admin_connections_.load();
  s.admin_requests = admin_requests_.load();
  return s;
}

// ---------------------------------------------------------------------------
// Event loop.

void NetServer::Loop() {
  epoll_event events[kMaxEvents];
  while (true) {
    if (stop_requested_.load(std::memory_order_relaxed)) stopping_ = true;
    if (stopping_) {
      // Graceful drain: already-admitted requests keep dispatching until
      // the drain deadline, after which whatever is still queued gets a
      // typed kUnavailable instead of silently vanishing with the loop.
      if (!drain_started_.has_value()) {
        drain_started_ = std::chrono::steady_clock::now();
      }
      if (!pending_.empty() &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        *drain_started_)
                  .count() >= options_.drain_deadline_seconds) {
        FailPendingUnavailable();
      }
      // Exit once every queued response has been flushed (torn writes
      // resume in FlushDirty), so a shutdown ack actually reaches the
      // client before the loop dies.
      bool outstanding = !pending_.empty();
      for (auto& [id, conn] : conns_) {
        if (conn.out_offset < conn.outbuf.size()) outstanding = true;
      }
      if (!outstanding) break;
    }

    // A tick with queued work or owed flushes (torn remainders) must not
    // park in epoll_wait.
    const bool flush_owed = !dirty_.empty();
    const int timeout_ms = (!pending_.empty() || flush_owed) ? 0 : 50;

    int ready = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno != EINTR) {
        obs::LogError("net", "epoll_wait failed: %s", std::strerror(errno));
        break;
      }
      ready = 0;
    }

    // Loop-saturation telemetry: time the busy part of the tick (everything
    // between epoll_wait returns), but only for ticks that had actual work —
    // idle 50ms parks must not drown the histogram in zeros.
    WallTimer tick_timer;
    const bool worked = ready > 0 || !pending_.empty() || flush_owed;

    for (int i = 0; i < ready; ++i) {
      const uint64_t tag = events[i].data.u64;
      const uint32_t mask = events[i].events;
      if (tag == kListenTag || tag == kAdminListenTag) {
        if ((mask & EPOLLIN) && !stopping_) {
          AcceptConnections(tag == kAdminListenTag);
        }
        continue;
      }
      if (tag == kWakeTag) {
        char drain[64];
        while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      Conn* conn = FindConn(tag);
      if (conn == nullptr) continue;  // closed earlier in this batch
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConn(tag);
        continue;
      }
      if (mask & EPOLLIN) HandleReadable(conn);
      // The read may have closed the connection; re-resolve before writing.
      conn = FindConn(tag);
      if (conn != nullptr && (mask & EPOLLOUT)) FlushConn(conn);
    }

    // Resume torn writes from previous ticks even without an epoll event:
    // the tear is ours, not the kernel's, so the socket is likely ready.
    FlushDirty();

    DispatchBatch();

    if (worked) {
      ++loop_ticks_;
      RecordLoopTick(tick_timer.ElapsedSeconds());
    }
  }

  // Close everything on the way out.
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    loop_exited_ = true;
  }
  shutdown_cv_.notify_all();
}

void NetServer::RecordLoopTick(double busy_seconds) {
  static obs::Histogram& lag =
      obs::MetricsRegistry::Global().GetHistogram("net/loop_lag_seconds");
  static obs::Gauge& depth =
      obs::MetricsRegistry::Global().GetGauge("net/queue_depth");
  lag.Observe(busy_seconds);
  depth.Set(static_cast<double>(pending_.size()));

  const bool windows_on = obs::WindowRegistry::Global().enabled();
  const bool slos_on = obs::SloTracker::Global().enabled();
  if (!windows_on && !slos_on) return;
  const uint64_t now = obs::NowMicros();
  if (windows_on) {
    static obs::SlidingWindowHistogram& lag_window =
        obs::WindowRegistry::Global().GetHistogram(
            "net/window/loop_lag_seconds");
    lag_window.Observe(busy_seconds, now);
    static obs::SlidingWindowHistogram& depth_window =
        obs::WindowRegistry::Global().GetHistogram(
            "net/window/queue_depth",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
    depth_window.Observe(static_cast<double>(pending_.size()), now);
  }
  if (slos_on) {
    obs::SloTracker::Global().RecordLatency(kSloNetLoopSaturation,
                                            busy_seconds, now);
  }
}

void NetServer::RefreshMemoryTelemetry() {
  obs::MemoryAccountant& accountant = obs::MemoryAccountant::Global();
  static obs::MemCounter& conn_buffers =
      accountant.GetCounter("net/conn_buffers");
  static obs::MemCounter& pending_queue =
      accountant.GetCounter("net/pending_queue");
  static obs::MemCounter& pending_payloads =
      accountant.GetCounter("net/pending_payloads");
  uint64_t buffer_bytes = 0;
  for (const auto& [id, conn] : conns_) {
    buffer_bytes += conn.decoder.ApproxBytes();
    buffer_bytes += obs::StringApproxBytes(conn.outbuf);
    if (conn.http != nullptr) buffer_bytes += conn.http->ApproxBytes();
  }
  conn_buffers.Set(buffer_bytes);
  pending_queue.Set(pending_.size() * sizeof(Pending));
  uint64_t payload_bytes = 0;
  for (const Pending& pending : pending_) {
    payload_bytes += obs::StringApproxBytes(pending.frame.payload);
  }
  pending_payloads.Set(payload_bytes);
  csp_->ReportMemory(accountant);
  obs::ReportObsMemory(accountant);
  accountant.PublishGauges(obs::MetricsRegistry::Global());
}

void NetServer::AcceptConnections(bool admin) {
  static obs::Counter& accepted =
      obs::MetricsRegistry::Global().GetCounter("net/connections_accepted");
  static obs::Counter& rejected =
      obs::MetricsRegistry::Global().GetCounter("net/connections_rejected");
  while (true) {
    const int fd = accept(admin ? admin_listen_fd_ : listen_fd_, nullptr,
                          nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll_wait
    if (!admin && conns_.size() >= options_.max_connections) {
      close(fd);
      ++connections_rejected_;
      rejected.Increment();
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    SetNoDelay(fd);
    const uint64_t id = next_conn_id_++;
    if (!Watch(epoll_fd_, fd, id).ok()) {
      close(fd);
      continue;
    }
    Conn& conn = conns_[id];
    conn.id = id;
    conn.fd = fd;
    if (admin) {
      conn.is_admin = true;
      conn.http = std::make_unique<HttpParser>();
      // Registered on the first admin accept, so a server without an admin
      // plane exports no admin series.
      static obs::Counter& admin_accepted =
          obs::MetricsRegistry::Global().GetCounter("net/admin/connections");
      ++admin_connections_;
      admin_accepted.Increment();
    } else {
      ++connections_accepted_;
      accepted.Increment();
    }
  }
}

NetServer::Conn* NetServer::FindConn(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : &it->second;
}

void NetServer::CloseConn(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  static obs::Counter& closed =
      obs::MetricsRegistry::Global().GetCounter("net/connections_closed");
  // The fd is the only reference to its socket, so close() also drops it
  // from the epoll set.
  close(it->second.fd);
  conns_.erase(it);
  ++connections_closed_;
  closed.Increment();
}

void NetServer::HandleReadable(Conn* conn) {
  static obs::Counter& slow_reads =
      obs::MetricsRegistry::Global().GetCounter("net/fault/slow_reads");
  char buf[kReadChunk];
  const uint64_t conn_id = conn->id;
  while (true) {
    size_t want = sizeof(buf);
    if (!conn->is_admin &&
        fault::FaultInjector::Global().ShouldInject(fault::kNetSlowRead)) {
      // A pathologically slow peer: deliver one byte this pass. The frame
      // decoder is torn-read tolerant by construction, so this only adds
      // latency.
      want = 1;
      ++faults_injected_;
      slow_reads.Increment();
    }
    const ssize_t n = recv(conn->fd, buf, want, 0);
    if (n > 0) {
      bytes_read_ += static_cast<uint64_t>(n);
      if (conn->is_admin) {
        conn->http->Feed(buf, static_cast<size_t>(n));
        DrainHttp(conn);
      } else {
        conn->decoder.Feed(buf, static_cast<size_t>(n));
        DrainDecoder(conn);
      }
      if (FindConn(conn_id) == nullptr) return;  // parse error closed it
      if (static_cast<size_t>(n) < want) return;  // drained the socket
      if (want == 1) return;  // slow read: one byte per tick
      continue;
    }
    if (n == 0) {  // orderly peer close
      CloseConn(conn_id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
}

void NetServer::DrainDecoder(Conn* conn) {
  static obs::Counter& decoded =
      obs::MetricsRegistry::Global().GetCounter("net/frames_decoded");
  static obs::Counter& rejected =
      obs::MetricsRegistry::Global().GetCounter("net/frames_rejected");
  static obs::Counter& admission =
      obs::MetricsRegistry::Global().GetCounter("net/admission_rejected");
  const uint64_t conn_id = conn->id;
  while (true) {
    Frame frame;
    Status error;
    WallTimer decode_timer;
    const FrameDecoder::Poll poll = conn->decoder.Next(&frame, &error);
    if (poll == FrameDecoder::Poll::kNeedMore) return;
    if (poll == FrameDecoder::Poll::kError) {
      // The stream is desynchronized beyond repair: answer with the typed
      // error, then close once it is flushed.
      ++frames_rejected_;
      rejected.Increment();
      obs::LogWarn("net", "conn %llu: %s",
                   static_cast<unsigned long long>(conn_id),
                   error.ToString().c_str());
      QueueError(conn, error, 0);
      conn->close_after_flush = true;
      FlushConn(conn);
      return;
    }
    ++frames_decoded_;
    decoded.Increment();

    switch (frame.type) {
      case MsgType::kServeRequest:
      case MsgType::kAnonymizeRequest:
      case MsgType::kSnapshotAdvance: {
        if (stopping_) {
          // Mid-drain arrivals must not extend the drain: typed reject,
          // same retry hint as admission control.
          static obs::Counter& drain_rejected =
              obs::MetricsRegistry::Global().GetCounter("net/drain_rejected");
          ++drain_rejected_;
          drain_rejected.Increment();
          QueueError(conn,
                     Status::Unavailable("server is draining for shutdown"),
                     options_.retry_after_micros);
          FlushConn(conn);
          break;
        }
        if (pending_.size() >= options_.max_pending) {
          // Admission control: a typed, retryable reject instead of an
          // unbounded queue.
          ++admission_rejected_;
          admission.Increment();
          QueueError(conn,
                     Status::Unavailable("pending-request queue is full"),
                     options_.retry_after_micros);
          FlushConn(conn);
          break;
        }
        Pending pending;
        pending.conn_id = conn_id;
        pending.frame = std::move(frame);
        pending.decode_seconds = decode_timer.ElapsedSeconds();
        pending.enqueued = std::chrono::steady_clock::now();
        pending_.push_back(std::move(pending));
        break;
      }
      case MsgType::kHealthRequest: {
        // Operator plane: answered inline, bypassing admission so health
        // stays observable under overload.
        HealthResponseMsg msg;
        msg.healthy = true;
        msg.queue_depth = static_cast<uint32_t>(pending_.size());
        msg.queue_capacity = static_cast<uint32_t>(options_.max_pending);
        msg.connections = static_cast<uint32_t>(conns_.size());
        QueueResponse(conn, MsgType::kHealthResponse,
                      EncodeHealthResponse(msg));
        FlushConn(conn);
        break;
      }
      case MsgType::kStatsRequest: {
        const CspServer::Stats& cs = csp_->stats();
        StatsResponseMsg msg;
        msg.requests_served = cs.requests_served;
        msg.requests_degraded = cs.requests_degraded;
        msg.requests_failed = cs.requests_failed;
        msg.requests_rejected = cs.requests_rejected;
        msg.snapshots_advanced = cs.snapshots_advanced;
        msg.moves_quarantined = cs.moves_quarantined;
        msg.rebuilds = cs.rebuilds;
        msg.incremental_updates = cs.incremental_updates;
        msg.repair_fallbacks = cs.repair_fallbacks;
        msg.admission_rejected = admission_rejected_.load();
        QueueResponse(conn, MsgType::kStatsResponse,
                      EncodeStatsResponse(msg));
        FlushConn(conn);
        break;
      }
      case MsgType::kShutdownRequest: {
        obs::LogInfo("net", "shutdown requested by conn %llu",
                     static_cast<unsigned long long>(conn_id));
        QueueResponse(conn, MsgType::kShutdownResponse, "");
        conn->close_after_flush = true;
        stopping_ = true;
        FlushConn(conn);
        break;
      }
      default: {
        // A response type arriving at the server is a protocol violation.
        ++frames_rejected_;
        rejected.Increment();
        QueueError(conn,
                   Status::InvalidArgument(
                       "frame type is not a request the server accepts"),
                   0);
        conn->close_after_flush = true;
        FlushConn(conn);
        return;
      }
    }
    if (FindConn(conn_id) == nullptr) return;  // conn_drop during flush
  }
}

// ---------------------------------------------------------------------------
// Admin plane.

namespace {

// Human burn-rate table for GET /slo: one row per objective with both
// alerting windows, mirroring the CLI's end-of-run SLO report.
std::string SloBurnTable() {
  const obs::MetricsSnapshot snapshot = obs::FullSnapshot();
  if (snapshot.slos.empty()) {
    return "no SLO objectives armed (serve with --slo-config FILE.json)\n";
  }
  TablePrinter table({"slo", "kind", "target", "fast_burn", "slow_burn",
                      "alerting", "fired", "resolved"});
  for (const obs::SloState& slo : snapshot.slos) {
    char target[32], fast[32], slow[32];
    std::snprintf(target, sizeof(target), "%.4f", slo.target);
    std::snprintf(fast, sizeof(fast), "%.2f", slo.fast_burn);
    std::snprintf(slow, sizeof(slow), "%.2f", slo.slow_burn);
    table.AddRow({slo.name, obs::SloKindName(slo.kind), target, fast, slow,
                  slo.alerting ? "ALERT" : "ok",
                  std::to_string(slo.alerts_fired),
                  std::to_string(slo.alerts_resolved)});
  }
  return table.ToString();
}

}  // namespace

void NetServer::DrainHttp(Conn* conn) {
  const uint64_t conn_id = conn->id;
  while (true) {
    HttpRequest request;
    Status error;
    const HttpParser::Poll poll = conn->http->Next(&request, &error);
    if (poll == HttpParser::Poll::kNeedMore) return;
    if (poll == HttpParser::Poll::kError) {
      const int status =
          conn->http->http_status() > 0 ? conn->http->http_status() : 400;
      obs::LogWarn("net", "admin conn %llu: %s",
                   static_cast<unsigned long long>(conn_id),
                   error.ToString().c_str());
      conn->outbuf += EncodeHttpResponse(status, "text/plain; charset=utf-8",
                                         error.message() + "\n",
                                         /*keep_alive=*/false);
      conn->close_after_flush = true;
      FlushConn(conn);
      return;
    }
    HandleAdminRequest(conn, request);
    if (FindConn(conn_id) == nullptr) return;  // flushed and closed
  }
}

void NetServer::HandleAdminRequest(Conn* conn, const HttpRequest& request) {
  static obs::Counter& admin_served =
      obs::MetricsRegistry::Global().GetCounter("net/admin/requests");
  ++admin_requests_;
  admin_served.Increment();

  const bool head_only = request.method == "HEAD";
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (request.method != "GET" && !head_only) {
    status = 405;
    body = "only GET and HEAD are served here\n";
  } else if (request.path == "/metrics") {
    // The Prometheus scrape target; version 0.0.4 is the text format tag.
    RefreshMemoryTelemetry();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = obs::ExportPrometheus(obs::FullSnapshot(), options_.exemplars);
  } else if (request.path == "/healthz") {
    // Body stays "ok "-prefixed (probes grep for it); the fields behind it
    // carry the drain state, uptime and connection split.
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    char line[224];
    std::snprintf(line, sizeof(line),
                  "ok state=%s uptime_seconds=%.3f queue=%zu/%zu "
                  "connections=%zu admin_connections=%llu\n",
                  stopping_ ? "draining" : "serving", uptime, pending_.size(),
                  options_.max_pending, conns_.size(),
                  static_cast<unsigned long long>(admin_connections_.load()));
    body = line;
  } else if (request.path == "/memory") {
    content_type = "application/json";
    RefreshMemoryTelemetry();
    body = obs::MemoryAccountant::Global().ExportJson(csp_->snapshot().size());
  } else if (request.path == "/vars") {
    content_type = "application/json";
    RefreshMemoryTelemetry();
    body = obs::ExportJson(obs::FullSnapshot());
  } else if (request.path == "/slo") {
    body = SloBurnTable();
  } else if (request.path == "/trace") {
    // Span trees of the slowest (and all anomalous) requests in the tail
    // ring's sliding window; also consumed by `pasa_cli slowest`.
    content_type = "application/json";
    body = obs::TailTraceRing::Global().ExportJson();
  } else if (request.path == "/profile") {
    // Folded span self times since start; a window is two scrapes' diff.
    body = obs::ExportFolded(obs::MetricsRegistry::Global().Snapshot());
  } else {
    status = 404;
    body = "unknown admin path: try /metrics /healthz /slo /vars /trace "
           "/profile /memory\n";
  }

  conn->outbuf += EncodeHttpResponse(status, content_type, body,
                                     request.keep_alive, head_only);
  if (!request.keep_alive) conn->close_after_flush = true;
  FlushConn(conn);
}

// ---------------------------------------------------------------------------
// Dispatch.

void NetServer::DispatchBatch() {
  size_t budget = options_.max_batch;
  while (budget-- > 0 && !pending_.empty()) {
    Pending pending = std::move(pending_.front());
    pending_.pop_front();
    Dispatch(pending);
  }
}

void NetServer::FailPendingUnavailable() {
  static obs::Counter& expired =
      obs::MetricsRegistry::Global().GetCounter("net/drain_expired");
  obs::LogWarn("net", "drain deadline expired with %zu request(s) queued",
               pending_.size());
  while (!pending_.empty()) {
    Pending pending = std::move(pending_.front());
    pending_.pop_front();
    ++drain_expired_;
    expired.Increment();
    Conn* conn = FindConn(pending.conn_id);
    if (conn == nullptr) continue;  // client went away while queued
    QueueError(
        conn,
        Status::Unavailable("server shut down before the request was served"),
        options_.retry_after_micros);
    FlushConn(conn);
  }
}

void NetServer::Dispatch(const Pending& pending) {
  static obs::Counter& served =
      obs::MetricsRegistry::Global().GetCounter("net/requests_served");
  Conn* conn = FindConn(pending.conn_id);
  if (conn == nullptr) return;  // client went away while queued

  const double queue_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pending.enqueued)
          .count();

  // Distributed tracing: adopt the frame's wire context when the client
  // sent one, otherwise originate a trace locally while a trace consumer
  // (tail ring or timeline sink) is armed. With neither, the request stays
  // untraced and the extra cost here is two relaxed loads.
  obs::TraceContext ctx;
  if (pending.frame.has_trace) {
    ctx.trace_id = pending.frame.trace_id;
    ctx.span_id = pending.frame.parent_span_id;
    ctx.remote = true;
  } else if (obs::TailTraceRing::Global().enabled() ||
             obs::TraceEventSink::Global().active()) {
    ctx.trace_id = obs::NewTraceId();
  }
  std::optional<obs::ScopedTraceContext> trace_scope;
  if (ctx.valid()) trace_scope.emplace(ctx);

  // A serve or anonymize request carries one record from here to
  // FinishRequest, which derives its histograms, windows, SLO records,
  // tail-trace offer and audit line. The record collects the request's
  // span tree while the tail ring is armed, and CspServer's nested scope
  // annotates it. A snapshot advance is not a request and opens none.
  std::optional<obs::ScopedProvenanceRecord> prov;
  if (pending.frame.type != MsgType::kSnapshotAdvance) {
    prov.emplace();
    obs::ProvenanceRecord& record = prov->record();
    record.net_decode_seconds = pending.decode_seconds;
    record.net_queue_seconds = queue_seconds;
    record.trace_id = ctx.trace_id;
  }

  std::string payload;
  MsgType response_type = MsgType::kError;
  Status failure;
  {
    // The server-side request span: everything below nests under it (the
    // cloak span in CspServer, the LBS span in the frontend), and its close
    // completes the span tree on the record.
    std::optional<obs::ScopedSpan> dispatch_span;
    if (ctx.valid()) {
      dispatch_span.emplace("net/dispatch", obs::ScopedSpan::kRoot);
    }

    switch (pending.frame.type) {
      case MsgType::kServeRequest: {
        Result<ServiceRequest> sr =
            DecodeServiceRequest(pending.frame.payload);
        if (!sr.ok()) {
          failure = sr.status();
          break;
        }
        CspServer::ServeReceipt receipt;
        Result<LbsAnswer> answer = csp_->HandleRequest(*sr, &receipt);
        if (!answer.ok()) {
          failure = answer.status();
          break;
        }
        ServeResponseMsg msg;
        msg.rid = receipt.rid;
        msg.group_size = receipt.group_size;
        msg.degraded = answer->degraded;
        msg.cloak_x1 = receipt.cloak.x1;
        msg.cloak_y1 = receipt.cloak.y1;
        msg.cloak_x2 = receipt.cloak.x2;
        msg.cloak_y2 = receipt.cloak.y2;
        msg.pois = std::move(answer->pois);
        response_type = MsgType::kServeResponse;
        payload = EncodeServeResponse(msg);
        break;
      }
      case MsgType::kAnonymizeRequest: {
        Result<ServiceRequest> sr =
            DecodeServiceRequest(pending.frame.payload);
        if (!sr.ok()) {
          failure = sr.status();
          break;
        }
        uint64_t group_size = 0;
        Result<AnonymizedRequest> ar = csp_->Cloak(*sr, &group_size);
        if (!ar.ok()) {
          failure = ar.status();
          break;
        }
        AnonymizeResponseMsg msg;
        msg.rid = ar->rid;
        msg.group_size = group_size;
        msg.cloak_x1 = ar->cloak.x1;
        msg.cloak_y1 = ar->cloak.y1;
        msg.cloak_x2 = ar->cloak.x2;
        msg.cloak_y2 = ar->cloak.y2;
        response_type = MsgType::kAnonymizeResponse;
        payload = EncodeAnonymizeResponse(msg);
        break;
      }
      case MsgType::kSnapshotAdvance: {
        Result<SnapshotAdvanceMsg> msg =
            DecodeSnapshotAdvance(pending.frame.payload);
        if (!msg.ok()) {
          failure = msg.status();
          break;
        }
        Result<SnapshotReport> report = csp_->AdvanceSnapshot(msg->moves);
        if (!report.ok()) {
          failure = report.status();
          break;
        }
        SnapshotReportMsg out;
        out.moves_applied = report->moves_applied;
        out.moves_quarantined = report->moves_quarantined;
        out.rebuilt = report->rebuilt;
        out.repair_fell_back_to_rebuild = report->repair_fell_back_to_rebuild;
        out.dp_rows_repaired = report->dp_rows_repaired;
        out.policy_cost = report->policy_cost;
        response_type = MsgType::kSnapshotReport;
        payload = EncodeSnapshotReport(out);
        break;
      }
      default:
        failure = Status::Internal("unroutable frame type reached dispatch");
        break;
    }

    WallTimer encode_timer;
    if (failure.ok()) {
      QueueResponse(conn, response_type, payload);
    } else {
      QueueError(conn, failure, 0);
    }
    if (prov.has_value()) {
      obs::ProvenanceRecord& record = prov->record();
      record.net_encode_seconds = encode_timer.ElapsedSeconds();
      // The CSP records the outcome of what it handled; a frame that
      // failed without a status on its record (undecodable payload,
      // unroutable type) is classed here.
      if (!failure.ok() && record.status == StatusCode::kOk) {
        record.status = failure.code();
        if (failure.code() != StatusCode::kInvalidArgument &&
            failure.code() != StatusCode::kNotFound) {
          record.outcome = obs::RequestOutcome::kFailed;
        }
      }
    }
  }
  if (prov.has_value()) prov->Finish();
  ++requests_served_;
  served.Increment();
  FlushConn(conn);
}

// ---------------------------------------------------------------------------
// Writing.

void NetServer::QueueResponse(Conn* conn, MsgType type,
                              const std::string& payload) {
  conn->outbuf += EncodeFrame(type, payload);
}

void NetServer::QueueError(Conn* conn, const Status& status,
                           uint64_t retry_after) {
  ErrorMsg msg;
  msg.code = status.code();
  msg.retry_after_micros = retry_after;
  msg.message = status.message();
  QueueResponse(conn, MsgType::kError, EncodeError(msg));
}

void NetServer::FlushConn(Conn* conn) {
  static obs::Counter& torn_writes =
      obs::MetricsRegistry::Global().GetCounter("net/fault/torn_writes");
  static obs::Counter& conn_drops =
      obs::MetricsRegistry::Global().GetCounter("net/fault/conn_drops");
  const uint64_t conn_id = conn->id;

  if (!conn->is_admin && conn->out_offset < conn->outbuf.size() &&
      fault::FaultInjector::Global().ShouldInject(fault::kNetConnDrop)) {
    // The peer vanishes right before its response: correctness must come
    // from the client retrying, never from weakened anonymity.
    ++faults_injected_;
    conn_drops.Increment();
    CloseConn(conn_id);
    return;
  }

  size_t limit = conn->outbuf.size();
  if (!conn->is_admin && limit - conn->out_offset > 1 &&
      fault::FaultInjector::Global().ShouldInject(fault::kNetTornWrite)) {
    // Write only half of what is due; the remainder goes out on the next
    // FlushDirty, exercising every client's torn-frame tolerance.
    ++faults_injected_;
    torn_writes.Increment();
    limit = conn->out_offset + (limit - conn->out_offset) / 2;
  }

  while (conn->out_offset < limit) {
    const ssize_t n =
        send(conn->fd, conn->outbuf.data() + conn->out_offset,
             limit - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_written_ += static_cast<uint64_t>(n);
      ++write_calls_;
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket is full: EPOLLOUT says when it drains.
      SetWriteInterest(conn, true);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }

  if (conn->out_offset >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_offset = 0;
    SetWriteInterest(conn, false);
    if (conn->close_after_flush) CloseConn(conn_id);
  } else {
    // Torn write: the socket still has room, so the loop resumes it
    // without waiting for EPOLLOUT.
    MarkDirty(conn);
  }
}

void NetServer::MarkDirty(Conn* conn) {
  if (conn->dirty) return;
  conn->dirty = true;
  dirty_.push_back(conn->id);
}

void NetServer::FlushDirty() {
  // A tear during this pass lists its connection again, behind `listed`,
  // for the next pass instead of extending this one.
  const size_t listed = dirty_.size();
  for (size_t i = 0; i < listed; ++i) {
    Conn* conn = FindConn(dirty_[i]);
    if (conn == nullptr) continue;  // closed since it was listed
    conn->dirty = false;
    if (!conn->write_interest) FlushConn(conn);
  }
  dirty_.erase(dirty_.begin(), dirty_.begin() + listed);
}

void NetServer::SetWriteInterest(Conn* conn, bool on) {
  if (conn->write_interest == on) return;
  conn->write_interest = on;
  epoll_event ev{};
  ev.events = on ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

}  // namespace net
}  // namespace pasa
