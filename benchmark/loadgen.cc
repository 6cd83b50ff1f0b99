#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <memory>

#include "net/client.h"
#include "server_process.h"
#include "span_recorder.h"
#include "speed_gauge.h"

namespace pasa_bench {
namespace {

using pasa::Result;
using pasa::Status;
namespace net = pasa::net;

constexpr int64_t kSecond = 1'000'000'000;
constexpr int64_t kHealthPollNs = kSecond / 20;
constexpr int64_t kFailed = -1;
/// max_rps counts only when the closed loop's p99 stays within this limit.
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kTimeoutSeconds = 60.0;
constexpr size_t kMaxErrors = 8;
/// Idle time the speed gauge gets next to each phase that keeps the server
/// busy: a set-up, a closed-loop segment, a repair probe.
constexpr double kGapSeconds = 0.05;
/// The closed loop runs in segments this long.
constexpr int64_t kSegmentNs = kSecond / 4;
/// Requests each serving connection keeps in flight in the warm-up, deeper
/// than the measured closed loop's so the warm-up ends sooner.
constexpr size_t kWarmupOutstanding = 32;
/// The open loop reads the server CPU's clocks into a slot this often.
constexpr int64_t kSlotNs = kSecond / 100;
/// Slots kept after the schedule ends, while the last responses drain.
constexpr size_t kDrainSlots = 1000;

int64_t Now() { return SpanRecorder::Now(); }

/// The server CPU's clocks at one instant of the open loop.
struct Slot {
  int64_t wall_ns = 0;
  int64_t server_cpu_ns = 0;  ///< current to within a scheduler tick
  SpeedGauge::Reading gauge;
};

Result<int> Dial(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return Status::Unavailable("cannot connect to the server");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Fixed-capacity FIFO, allocated before the measured phases.
class Ring {
 public:
  explicit Ring(size_t capacity) : slots_(std::max<size_t>(1, capacity)) {}
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  void Push(uint32_t v) { slots_[(head_ + size_++) % slots_.size()] = v; }
  uint32_t Pop() {
    const uint32_t v = slots_[head_];
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return v;
  }

 private:
  std::vector<uint32_t> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

/// Bytes queued for one socket: [sent, queued) of `data` still to write.
struct Outbox {
  const char* data = nullptr;
  size_t queued = 0;
  size_t sent = 0;
};

/// The single-threaded client: all sockets, all per-request records.
class Driver {
 public:
  Driver(const Inputs& in, const SpeedGauge& gauge)
      : in_(in),
        gauge_(gauge),
        start_ns_(in.requests.size(), 0),
        done_ns_(in.requests.size(), 0),
        lateness_ns_(in.open, 0),
        adv_sent_ns_(in.batches.size(), 0),
        adv_rtt_ns_(in.batches.size(), 0),
        adv_state_(in.batches.size(), kPending),
        reports_(in.batches.size()),
        adv_inflight_(in.batches.size()) {
    for (size_t c = 0; c < kServeConns; ++c) {
      serve_[c].inflight = Ring(in.frame_end[c].size());
      serve_[c].out.data = in.arena[c].data();
    }
    op_bytes_.reserve(1 << 20);
    depths_.reserve(static_cast<size_t>(in.open / 500 + 64));
    const double open_seconds = static_cast<double>(in.open) / in.spec.rate;
    slots_.reserve(static_cast<size_t>(open_seconds * kSecond / kSlotNs) +
                   kDrainSlots + 1);
  }

  ~Driver() {
    for (ServeConn& conn : serve_) {
      if (conn.fd >= 0) close(conn.fd);
    }
    if (op_.fd >= 0) close(op_.fd);
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  Status Connect(uint16_t port) {
    epoll_fd_ = epoll_create1(0);
    if (epoll_fd_ < 0) return Status::Internal("epoll_create1 failed");
    for (size_t c = 0; c <= kServeConns; ++c) {
      Result<int> fd = Dial(port);
      if (!fd.ok()) return fd.status();
      (c < kServeConns ? serve_[c].fd : op_.fd) = *fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(c);
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, *fd, &ev) != 0) {
        return Status::Internal("epoll_ctl failed");
      }
    }
    return Status::Ok();
  }

  /// Keeps `outstanding` requests in flight per connection until the
  /// stream reaches `end` or, when `deadline_ns` is set, time runs out.
  /// Returns the phase's start.
  Result<int64_t> ClosedLoop(size_t end, int64_t deadline_ns,
                             size_t outstanding) {
    const int64_t start = Now();
    const int64_t give_up =
        std::max(start, deadline_ns) +
        static_cast<int64_t>(kTimeoutSeconds * kSecond);
    while (true) {
      const int64_t now = Now();
      const bool stop = deadline_ns > 0 && now >= deadline_ns;
      bool exhausted = true;
      bool idle = true;
      for (size_t c = 0; c < kServeConns; ++c) {
        ServeConn& conn = serve_[c];
        while (!stop && conn.inflight.size() < outstanding &&
               Next(c) < end) {
          Queue(c, now);
        }
        if (Next(c) < end) exhausted = false;
        if (!conn.inflight.empty()) idle = false;
      }
      FlushAll();
      if (idle && (stop || exhausted)) return start;
      if (now > give_up) {
        return Status::DeadlineExceeded("closed loop did not finish");
      }
      Pump(0);
    }
  }

  /// Sends [begin, end) on the rate schedule (request i due at
  /// start + (i - begin) / rate), polls health at 20 Hz and, in `moving`,
  /// sends each batch at its due offset. Reads the CPU clocks into a slot
  /// every kSlotNs from the start until the end of the drain. Returns once
  /// every response and report is in. Returns the schedule's start.
  Result<int64_t> OpenLoop(size_t begin, size_t end, double rate,
                           bool advances, const ServerProcess& server) {
    const int64_t start = Now() + kSecond / 1000;
    const double interval = 1e9 / rate;
    const int64_t finish =
        start + static_cast<int64_t>(static_cast<double>(end - begin) *
                                     interval);
    size_t i = begin;
    size_t batch = 0;
    const size_t batches = advances ? in_.batches.size() : 0;
    int64_t next_poll = start;
    int64_t next_slot = start;
    while (true) {
      const int64_t now = Now();
      // The last slot is kept for the end of the drain.
      if (now >= next_slot && slots_.size() + 1 < slots_.capacity()) {
        if (Status s = TakeSlot(server); !s.ok()) return s;
        next_slot = now + kSlotNs;
      }
      while (i < end) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(i - begin) *
                                         interval);
        if (due > now) break;
        lateness_ns_[i - begin] = now - due;
        Queue(i % kServeConns, due);
        ++i;
      }
      if (now >= next_poll && now < finish && !health_inflight_) {
        SendOp(health_frame_);
        health_inflight_ = true;
        next_poll = std::max(next_poll + kHealthPollNs, now);
      }
      if (batch < batches &&
          now >= start + static_cast<int64_t>(in_.batches[batch].due_seconds *
                                              kSecond)) {
        SendAdvance(batch++, now);
      }
      FlushAll();
      if (i == end && batch == batches && adv_inflight_.empty() &&
          serve_[0].inflight.empty() && serve_[1].inflight.empty()) {
        if (Status s = TakeSlot(server); !s.ok()) return s;
        return start;
      }
      if (now > finish + static_cast<int64_t>(kTimeoutSeconds * kSecond)) {
        return Status::DeadlineExceeded("open loop did not drain");
      }
      Pump(0);
    }
  }

  Status TakeSlot(const ServerProcess& server) {
    Slot slot;
    slot.wall_ns = Now();
    Result<int64_t> cpu = server.CpuNanos();
    if (!cpu.ok()) return cpu.status();
    slot.server_cpu_ns = *cpu;
    slot.gauge = gauge_.Read();
    slots_.push_back(slot);
    return Status::Ok();
  }

  /// One advance on its own, as a probe: send and wait for the report.
  Status Probe(size_t batch) {
    SendAdvance(batch, Now());
    return WaitFor([&] { return adv_state_[batch] != kPending; });
  }

  Result<net::StatsResponseMsg> Stats() {
    SendOp(stats_frame_);
    if (Status s = WaitFor([&] { return stats_received_; }); !s.ok()) return s;
    return stats_;
  }

  Status Shutdown() {
    shutdown_sent_ = true;
    SendOp(shutdown_frame_);
    return WaitFor([&] { return shutdown_acked_ || op_.fd < 0; });
  }

  // Results.
  const std::vector<int64_t>& start_ns() const { return start_ns_; }
  const std::vector<int64_t>& done_ns() const { return done_ns_; }
  const std::vector<int64_t>& lateness_ns() const { return lateness_ns_; }
  const std::vector<uint32_t>& depths() const { return depths_; }
  const std::vector<Slot>& slots() const { return slots_; }

  /// Responses to requests [begin, in.requests.size()) that arrived in
  /// [from_ns, to_ns].
  size_t Completed(size_t begin, int64_t from_ns, int64_t to_ns) const {
    size_t n = 0;
    for (size_t i = begin; i < done_ns_.size(); ++i) {
      n += done_ns_[i] >= from_ns && done_ns_[i] <= to_ns ? 1 : 0;
    }
    return n;
  }
  const std::vector<int64_t>& adv_sent_ns() const { return adv_sent_ns_; }
  const std::vector<int64_t>& adv_rtt_ns() const { return adv_rtt_ns_; }
  const std::vector<net::SnapshotReportMsg>& reports() const {
    return reports_;
  }
  const std::optional<net::ServeResponseMsg>& first_response() const {
    return first_response_;
  }
  bool advance_ok(size_t b) const { return adv_state_[b] == kReported; }
  uint64_t sent() const { return sent_; }
  uint64_t failed() const { return failed_; }
  uint64_t serve_responses() const { return serve_responses_; }
  uint64_t admission_errors() const { return admission_errors_; }
  uint64_t invalid_errors() const { return invalid_errors_; }
  uint64_t other_errors() const { return other_errors_; }
  uint64_t advances_sent() const { return advances_sent_; }
  std::vector<std::string>* errors() { return &errors_; }

 private:
  enum AdvanceState : uint8_t { kPending, kReported, kFailedAdvance };

  struct ServeConn {
    int fd = -1;
    net::FrameDecoder decoder;
    size_t next = 0;  ///< next frame (connection-local index) to queue
    Outbox out;
    Ring inflight{0};
  };
  struct OpConn {
    int fd = -1;
    net::FrameDecoder decoder;
    Outbox out;
  };

  size_t Next(size_t c) const { return serve_[c].next * kServeConns + c; }

  void Error(std::string message) {
    if (errors_.size() < kMaxErrors) errors_.push_back(std::move(message));
  }

  void Fail(uint32_t i) {
    done_ns_[i] = kFailed;
    ++failed_;
  }

  /// Hands the connection's next frame to its outbox; `start` is when the
  /// request's latency clock starts (due time or send time).
  void Queue(size_t c, int64_t start) {
    ServeConn& conn = serve_[c];
    const uint32_t i = static_cast<uint32_t>(Next(c));
    start_ns_[i] = start;
    conn.out.queued = in_.frame_end[c][conn.next];
    ++conn.next;
    ++sent_;
    if (conn.fd < 0) {
      Fail(i);
      return;
    }
    conn.inflight.Push(i);
  }

  void SendOp(const std::string& frame) {
    // Compact what the server already took before appending.
    if (op_.out.sent == op_.out.queued) {
      op_bytes_.clear();
      op_.out.sent = op_.out.queued = 0;
    }
    op_bytes_ += frame;
    op_.out.data = op_bytes_.data();
    op_.out.queued = op_bytes_.size();
  }

  void SendAdvance(size_t batch, int64_t now) {
    adv_sent_ns_[batch] = now;
    adv_inflight_.Push(static_cast<uint32_t>(batch));
    ++advances_sent_;
    SendOp(in_.batches[batch].frame);
  }

  // Writes what the socket takes; false when the connection broke.
  static bool Flush(int fd, Outbox* out) {
    while (out->sent < out->queued) {
      const ssize_t n = send(fd, out->data + out->sent,
                             out->queued - out->sent, MSG_NOSIGNAL);
      if (n > 0) {
        out->sent += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
    return true;
  }

  void FlushAll() {
    for (size_t c = 0; c < kServeConns; ++c) {
      if (serve_[c].fd >= 0 && !Flush(serve_[c].fd, &serve_[c].out)) {
        DropServe(c, "write failed");
      }
    }
    if (op_.fd >= 0 && !Flush(op_.fd, &op_.out)) DropOp("write failed");
  }

  // A broken serving connection fails everything in flight on it and
  // every request later queued on it.
  void DropServe(size_t c, const char* why) {
    ServeConn& conn = serve_[c];
    if (conn.fd < 0) return;
    // A server shutting down closes every connection, maybe before its
    // acknowledgement reaches the operator connection.
    if (!shutdown_sent_ || !conn.inflight.empty()) {
      Error(std::string("serving connection lost: ") + why);
    }
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    close(conn.fd);
    conn.fd = -1;
    while (!conn.inflight.empty()) Fail(conn.inflight.Pop());
  }

  void DropOp(const char* why) {
    if (op_.fd < 0) return;
    if (!shutdown_acked_) {
      Error(std::string("operator connection lost: ") + why);
    }
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, op_.fd, nullptr);
    close(op_.fd);
    op_.fd = -1;
    while (!adv_inflight_.empty()) {
      adv_state_[adv_inflight_.Pop()] = kFailedAdvance;
      ++failed_;
    }
  }

  // Reads everything the socket holds; false at end of stream or error.
  bool ReadAll(int fd, net::FrameDecoder* decoder) {
    while (true) {
      const ssize_t n = recv(fd, buf_, sizeof(buf_), 0);
      if (n > 0) {
        decoder->Feed(buf_, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf_)) return true;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
  }

  void Pump(int timeout_ms) {
    epoll_event events[kServeConns + 1];
    const int n = epoll_wait(epoll_fd_, events, kServeConns + 1, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const uint32_t c = events[e].data.u32;
      if (c < kServeConns) {
        ServeConn& conn = serve_[c];
        if (conn.fd < 0) continue;
        const bool open = ReadAll(conn.fd, &conn.decoder);
        OnServeFrames(c, Now());
        if (!open) DropServe(c, "closed by the server");
      } else if (op_.fd >= 0) {
        const bool open = ReadAll(op_.fd, &op_.decoder);
        OnOpFrames(Now());
        if (!open) DropOp("closed by the server");
      }
    }
  }

  template <typename Done>
  Status WaitFor(Done done) {
    const int64_t deadline =
        Now() + static_cast<int64_t>(kTimeoutSeconds * kSecond);
    while (!done()) {
      if (Now() > deadline) {
        return Status::DeadlineExceeded("no answer from the server");
      }
      FlushAll();
      Pump(1);
    }
    return Status::Ok();
  }

  void OnServeFrames(size_t c, int64_t now) {
    ServeConn& conn = serve_[c];
    while (true) {
      Status error;
      const net::FrameDecoder::Poll poll = conn.decoder.Next(&frame_, &error);
      if (poll == net::FrameDecoder::Poll::kNeedMore) return;
      if (poll == net::FrameDecoder::Poll::kError) {
        DropServe(c, "undecodable frame");
        return;
      }
      if (conn.inflight.empty()) {
        Error("response without a request in flight");
        continue;
      }
      const uint32_t i = conn.inflight.Pop();
      if (frame_.type == net::MsgType::kServeResponse) {
        ++serve_responses_;
        if (Verify(i)) {
          done_ns_[i] = now;
        } else {
          Fail(i);
        }
      } else if (frame_.type == net::MsgType::kError) {
        Result<net::ErrorMsg> msg = net::DecodeError(frame_.payload);
        if (msg.ok() && msg->retry_after_micros > 0) {
          ++admission_errors_;
        } else if (msg.ok() &&
                   msg->code == pasa::StatusCode::kInvalidArgument) {
          ++invalid_errors_;
        } else {
          ++other_errors_;
        }
        Fail(i);
      } else {
        Error("unexpected frame type on a serving connection");
        Fail(i);
      }
    }
  }

  bool Verify(uint32_t i) {
    Result<net::ServeResponseMsg> msg =
        net::DecodeServeResponse(frame_.payload);
    if (!msg.ok()) {
      Error("undecodable serve response: " + msg.status().ToString());
      return false;
    }
    const std::string problem = CheckServeResponse(
        *msg, in_.db.row(in_.requests[i].row).location);
    if (!problem.empty()) {
      Error("request " + std::to_string(i) + ": " + problem);
    }
    if (i == 0) first_response_ = std::move(*msg);
    return problem.empty();
  }

  void OnOpFrames(int64_t now) {
    while (true) {
      Status error;
      const net::FrameDecoder::Poll poll = op_.decoder.Next(&frame_, &error);
      if (poll == net::FrameDecoder::Poll::kNeedMore) return;
      if (poll == net::FrameDecoder::Poll::kError) {
        DropOp("undecodable frame");
        return;
      }
      switch (frame_.type) {
        case net::MsgType::kHealthResponse: {
          Result<net::HealthResponseMsg> msg =
              net::DecodeHealthResponse(frame_.payload);
          if (msg.ok()) depths_.push_back(msg->queue_depth);
          health_inflight_ = false;
          break;
        }
        case net::MsgType::kSnapshotReport: {
          if (adv_inflight_.empty()) {
            Error("snapshot report without an advance in flight");
            break;
          }
          const uint32_t b = adv_inflight_.Pop();
          Result<net::SnapshotReportMsg> msg =
              net::DecodeSnapshotReport(frame_.payload);
          if (!msg.ok()) {
            Error("undecodable snapshot report");
            adv_state_[b] = kFailedAdvance;
            ++failed_;
            break;
          }
          adv_rtt_ns_[b] = now - adv_sent_ns_[b];
          reports_[b] = *msg;
          adv_state_[b] = kReported;
          break;
        }
        case net::MsgType::kStatsResponse: {
          Result<net::StatsResponseMsg> msg =
              net::DecodeStatsResponse(frame_.payload);
          if (msg.ok()) {
            stats_ = *msg;
          } else {
            Error("undecodable stats response");
          }
          stats_received_ = true;
          break;
        }
        case net::MsgType::kShutdownResponse:
          shutdown_acked_ = true;
          break;
        case net::MsgType::kError:
          // Only an advance is admitted on this connection.
          if (!adv_inflight_.empty()) {
            adv_state_[adv_inflight_.Pop()] = kFailedAdvance;
            ++failed_;
          } else {
            Error("error frame on the operator connection");
          }
          break;
        default:
          Error("unexpected frame type on the operator connection");
      }
    }
  }

  const Inputs& in_;
  const SpeedGauge& gauge_;
  int epoll_fd_ = -1;
  ServeConn serve_[kServeConns];
  OpConn op_;
  std::string op_bytes_;
  const std::string health_frame_ =
      net::EncodeFrame(net::MsgType::kHealthRequest, "");
  const std::string stats_frame_ =
      net::EncodeFrame(net::MsgType::kStatsRequest, "");
  const std::string shutdown_frame_ =
      net::EncodeFrame(net::MsgType::kShutdownRequest, "");
  net::Frame frame_;
  char buf_[1 << 18];

  // Per request: latency clock start and response time (kFailed on
  // failure, 0 while outstanding).
  std::vector<int64_t> start_ns_;
  std::vector<int64_t> done_ns_;
  std::vector<int64_t> lateness_ns_;  ///< open loop: send time - due time
  std::vector<uint32_t> depths_;      ///< health-poll queue depths
  std::vector<Slot> slots_;
  std::vector<int64_t> adv_sent_ns_;
  std::vector<int64_t> adv_rtt_ns_;
  std::vector<AdvanceState> adv_state_;
  std::vector<net::SnapshotReportMsg> reports_;
  std::optional<net::ServeResponseMsg> first_response_;
  Ring adv_inflight_;
  bool health_inflight_ = false;
  net::StatsResponseMsg stats_;
  bool stats_received_ = false;
  bool shutdown_sent_ = false;
  bool shutdown_acked_ = false;

  uint64_t sent_ = 0;
  uint64_t failed_ = 0;
  uint64_t serve_responses_ = 0;
  uint64_t admission_errors_ = 0;
  uint64_t invalid_errors_ = 0;
  uint64_t other_errors_ = 0;
  uint64_t advances_sent_ = 0;
  std::vector<std::string> errors_;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Latency in us of request i; +inf when it failed.
double LatencyUs(const Driver& d, size_t i) {
  const int64_t done = d.done_ns()[i];
  if (done <= 0) return std::numeric_limits<double>::infinity();
  return Us(done - d.start_ns()[i]);
}

std::vector<std::string> ServerArgv(const Inputs& in,
                                    const ServerConfig& server) {
  return {server.binary,      "serve",
          "--in",             server.csv_path,
          "--k",              std::to_string(kK),
          "--seed",           std::to_string(in.seed),
          "--listen",         "0",
          "--listen-duration", "600",
          "--admin-port",     "0",
          "--exemplars",      "1",
          "--audit-out",      server.work_dir + "/audit.jsonl",
          "--log-level",      "error"};
}

/// The server CPU's clocks, read right after an idle gap that measured the
/// CPU's speed, so the server idles and its CPU clock is current.
struct IdleReading {
  int64_t wall_ns = 0;
  int64_t server_cpu_ns = 0;  ///< 0 when there is no server yet
  SpeedGauge::Reading gauge;
  double factor = 0.0;  ///< the CPU's speed over the gap
};

IdleReading ReadIdle(const SpeedGauge& gauge, const ServerProcess* server) {
  IdleReading r;
  r.factor = gauge.IdleFactor(kGapSeconds);
  r.wall_ns = Now();
  if (server != nullptr) {
    const pasa::Result<int64_t> cpu = server->CpuNanos();
    if (cpu.ok()) r.server_cpu_ns = *cpu;
  }
  r.gauge = gauge.Read();
  return r;
}

// Nominal time of a phase lasting `wall_ns` that lay between two idle
// readings: its wall time minus what someone other than the server and
// the gauge (the hypervisor, an interrupt) took of the CPU in between, at
// the CPU's speed around it (see SpeedGauge).
double NominalNs(const IdleReading& a, const IdleReading& b, int64_t wall_ns) {
  const int64_t stolen = (b.wall_ns - a.wall_ns) -
                         (b.server_cpu_ns - a.server_cpu_ns) -
                         (b.gauge.cpu_ns - a.gauge.cpu_ns);
  const int64_t kept = wall_ns - std::clamp<int64_t>(stolen, 0, wall_ns);
  return static_cast<double>(kept) * (a.factor + b.factor) / 2;
}

// Stops a server that was spawned only to time its set-up.
Status ShutDownQuietly(ServerProcess* server) {
  Result<net::NetClient> client = net::NetClient::Connect(server->port());
  if (!client.ok()) return client.status();
  Result<net::Frame> ack =
      client->Call(net::MsgType::kShutdownRequest, "", kTimeoutSeconds);
  if (!ack.ok()) return ack.status();
  Result<int> rc = server->WaitExit(kTimeoutSeconds);
  if (!rc.ok()) return rc.status();
  if (*rc != 0) {
    return Status::Internal("server exited with " + std::to_string(*rc));
  }
  return Status::Ok();
}

}  // namespace

Result<E2eOutcome> RunEndToEnd(const Inputs& in, const RunShape& shape,
                               const ServerConfig& server_config) {
  // Phases that keep the server busy (set-up, closed loop, advances) are
  // timed in nominal time; see IdleReading.
  SpeedGauge gauge(server_config.cpu);
  const std::vector<std::string> argv = ServerArgv(in, server_config);
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < in.spec.setup_runs; ++r) {
    const IdleReading before = ReadIdle(gauge, nullptr);
    Result<std::unique_ptr<ServerProcess>> spawned =
        ServerProcess::Spawn(argv, server_config.cpu, 120.0);
    if (!spawned.ok()) return spawned.status();
    const int64_t wall_ns =
        static_cast<int64_t>((*spawned)->setup_seconds() * kSecond);
    setup_wall_s.push_back((*spawned)->setup_seconds());
    setup_s.push_back(
        NominalNs(before, ReadIdle(gauge, spawned->get()), wall_ns) / kSecond);
    if (r + 1 < in.spec.setup_runs) {
      if (Status s = ShutDownQuietly(spawned->get()); !s.ok()) return s;
    } else {
      server = std::move(*spawned);
    }
  }

  auto driver = std::make_unique<Driver>(in, gauge);
  if (Status s = driver->Connect(server->port()); !s.ok()) return s;
  Driver& d = *driver;
  const size_t total = in.requests.size();

  if (Result<int64_t> s = d.ClosedLoop(in.warmup, 0, kWarmupOutstanding);
      !s.ok()) {
    return s.status();
  }
  const size_t open_end = in.warmup + in.open;
  Result<int64_t> open_start = d.OpenLoop(in.warmup, open_end, in.spec.rate,
                                          in.spec.moving, *server);
  if (!open_start.ok()) return open_start.status();
  Result<uint64_t> rss = server->RssBytes();
  if (!rss.ok()) return rss.status();

  // Closed loop, for max_rps: segments between idle readings, since the
  // saturated server leaves the gauge no time of its own. Each segment
  // ends once its last response is in.
  const int segments = std::max(
      1, static_cast<int>(std::lround(shape.closed_seconds * kSecond /
                                      static_cast<double>(kSegmentNs))));
  size_t closed_done = 0;
  double closed_nominal_ns = 0.0;
  int64_t closed_wall_ns = 0;
  IdleReading before = ReadIdle(gauge, server.get());
  for (int k = 0; k < segments; ++k) {
    Result<int64_t> start =
        d.ClosedLoop(total, Now() + kSegmentNs, kClosedOutstanding);
    if (!start.ok()) return start.status();
    const int64_t end = Now();
    const IdleReading after = ReadIdle(gauge, server.get());
    closed_done += d.Completed(open_end, *start, end);
    closed_wall_ns += end - *start;
    closed_nominal_ns += NominalNs(before, after, end - *start);
    before = after;
  }

  // Repair probes, one at a time between idle readings.
  std::vector<double> probe_ms(in.batches.size(), 0.0);
  if (!in.spec.moving) {
    for (size_t b = 0; b < in.batches.size(); ++b) {
      if (Status s = d.Probe(b); !s.ok()) return s;
      const IdleReading after = ReadIdle(gauge, server.get());
      probe_ms[b] = NominalNs(before, after, d.adv_rtt_ns()[b]) / 1e6;
      before = after;
    }
  }
  Result<pasa::net::StatsResponseMsg> stats = d.Stats();
  if (!stats.ok()) return stats.status();
  if (Status s = d.Shutdown(); !s.ok()) return s;
  Result<int> exit_code = server->WaitExit(kTimeoutSeconds);
  if (!exit_code.ok()) return exit_code.status();

  E2eOutcome out;
  std::vector<std::string>& errors = *d.errors();
  MetricMap& m = out.metrics;
  const double users = static_cast<double>(in.spec.users);

  m["setup_s"] = {ComputeQuartiles(setup_s).median, "s"};
  m["setup_wall_s"] = {ComputeQuartiles(setup_wall_s).median, "s"};

  // The open loop in 1-s windows of due times; in `moving` each window holds
  // one advance, so its p99 charges the stall the advance causes. Per
  // window: the server's CPU time and its CPU's speed, from the slots at
  // the window's edges (the last window runs to the end of the drain).
  const std::vector<Slot>& slots = d.slots();
  const int windows =
      in.spec.moving
          ? static_cast<int>(in.batches.size())
          : std::max(1, static_cast<int>(std::lround(shape.open_seconds)));
  const int64_t window_ns =
      static_cast<int64_t>(shape.open_seconds * kSecond / windows);
  auto window_of = [&](int64_t ns) {
    return static_cast<size_t>(
        std::clamp<int64_t>((ns - *open_start) / window_ns, 0, windows - 1));
  };
  std::vector<double> factor(windows);
  double cpu_nominal_ns = 0.0;
  size_t from = 0;
  for (int w = 0; w < windows; ++w) {
    // The first slot at or after the window's end.
    const int64_t edge = *open_start + (w + 1) * window_ns;
    const size_t to =
        w + 1 == windows
            ? slots.size() - 1
            : static_cast<size_t>(
                  std::lower_bound(slots.begin() + from, slots.end() - 1, edge,
                                   [](const Slot& slot, int64_t t) {
                                     return slot.wall_ns < t;
                                   }) -
                  slots.begin());
    factor[w] = SpeedGauge::Factor(slots[from].gauge, slots[to].gauge);
    if (to <= from || !std::isfinite(factor[w])) {
      return Status::Internal("the speed gauge did not run in window " +
                              std::to_string(w));
    }
    cpu_nominal_ns += static_cast<double>(slots[to].server_cpu_ns -
                                          slots[from].server_cpu_ns) *
                      factor[w];
    from = to;
  }

  // Latency from the due time, failures as +inf. The nominal p50 scales
  // each latency by its window's speed; p99 is the median over the windows
  // of each window's p99, in wall time.
  std::vector<double> open_us;
  open_us.reserve(in.open);
  std::vector<double> open_nominal_us;
  open_nominal_us.reserve(in.open);
  std::vector<std::vector<double>> window_us(windows);
  for (size_t i = in.warmup; i < open_end; ++i) {
    const double us = LatencyUs(d, i);
    const size_t w = window_of(d.start_ns()[i]);
    open_us.push_back(us);
    open_nominal_us.push_back(us * factor[w]);
    window_us[w].push_back(us);
  }
  std::vector<double> window_p99;
  for (std::vector<double>& lat : window_us) {
    window_p99.push_back(Percentile(&lat, 0.99));
  }
  const double open_n = static_cast<double>(in.open);
  m["serve_p50_us"] = {Percentile(&open_nominal_us, 0.50), "us"};
  m["serve_p50_wall_us"] = {Percentile(&open_us, 0.50), "us"};
  m["serve_p99_us"] = {ComputeQuartiles(window_p99).median, "us"};
  m["server_cpu_us_per_req"] = {cpu_nominal_ns / 1e3 / open_n, "us"};
  m["server_cpu_raw_us_per_req"] = {
      Us(slots.back().server_cpu_ns - slots.front().server_cpu_ns) / open_n,
      "us"};
  m["host_speed"] = {ComputeQuartiles(factor).median, "ratio"};
  m["serve_p99_pooled_us"] = {Percentile(&open_us, 0.99), "us"};
  m["serve_p999_us"] = {Percentile(&open_us, 0.999), "us"};
  m["serve_max_us"] = {Percentile(&open_us, 1.0), "us"};
  m["rss_bytes_per_user"] = {static_cast<double>(*rss) / users, "B"};
  std::vector<double> late_us;
  late_us.reserve(d.lateness_ns().size());
  for (const int64_t ns : d.lateness_ns()) late_us.push_back(Us(ns));
  m["gen.late_p99_us"] = {Percentile(&late_us, 0.99), "us"};

  std::vector<double> depths(d.depths().begin(), d.depths().end());
  m["net.queue_depth_max"] = {Percentile(&depths, 1.0), "count"};
  m["net.queue_depth_p99"] = {Percentile(&depths, 0.99), "count"};

  m["max_rps"] = {static_cast<double>(closed_done) / (closed_nominal_ns / 1e9),
                  "req/s"};
  m["max_rps_wall"] = {static_cast<double>(closed_done) /
                           (static_cast<double>(closed_wall_ns) / 1e9),
                       "req/s"};
  std::vector<double> closed_us;
  for (size_t i = open_end; i < total; ++i) {
    if (d.start_ns()[i] != 0) closed_us.push_back(LatencyUs(d, i));
  }
  const double closed_p99 = Percentile(&closed_us, 0.99);
  m["closed_p99_us"] = {closed_p99, "us"};
  m["max_rps_within_limit"] = {closed_p99 <= kLatencyLimitUs ? 1.0 : 0.0,
                               "bool"};
  // Each connection's last frame is one of the stream's last two.
  if (d.start_ns()[total - 1] != 0 || d.start_ns()[total - 2] != 0) {
    errors.push_back("closed loop ran out of pre-encoded requests");
  }

  // Advances: round trip from send to report, by kind, in nominal time. A
  // `moving` advance runs at the speed of its open-loop window.
  std::vector<double> repair_ms;
  std::vector<double> repair_wall_ms;
  std::vector<double> rebuild_ms;
  size_t rebuilds = 0;
  for (size_t b = 0; b < in.batches.size(); ++b) {
    const Batch& batch = in.batches[b];
    rebuilds += batch.expect_rebuild ? 1 : 0;
    if (!d.advance_ok(b)) continue;
    const double wall = Ms(d.adv_rtt_ns()[b]);
    const double nominal =
        in.spec.moving ? wall * factor[window_of(d.adv_sent_ns()[b])]
                       : probe_ms[b];
    if (batch.expect_rebuild) {
      rebuild_ms.push_back(nominal);
    } else {
      repair_ms.push_back(nominal);
      repair_wall_ms.push_back(wall);
    }
    const pasa::net::SnapshotReportMsg& report = d.reports()[b];
    const std::string which = "advance " + std::to_string(b) + ": ";
    if (report.moves_quarantined != 0) {
      errors.push_back(which + "moves were quarantined");
    }
    if (report.moves_applied != batch.moves.size()) {
      errors.push_back(which + "not every move was applied");
    }
    if (report.rebuilt != batch.expect_rebuild) {
      errors.push_back(which + (batch.expect_rebuild
                                    ? "expected a full rebuild"
                                    : "expected an incremental repair"));
    }
  }
  m["advance_repair_ms"] = {ComputeQuartiles(repair_ms).median, "ms"};
  m["advance_repair_wall_ms"] = {ComputeQuartiles(repair_wall_ms).median, "ms"};
  if (!rebuild_ms.empty()) {
    m["advance_rebuild_ms"] = {ComputeQuartiles(rebuild_ms).median, "ms"};
  }

  // The server's own counts must match what the client saw.
  const pasa::net::StatsResponseMsg& st = *stats;
  auto expect = [&](const char* what, uint64_t server_side,
                    uint64_t client_side) {
    if (server_side != client_side) {
      errors.push_back(std::string("stats: ") + what + " is " +
                       std::to_string(server_side) + ", client counted " +
                       std::to_string(client_side));
    }
  };
  size_t reported = 0;
  for (size_t b = 0; b < in.batches.size(); ++b) {
    reported += d.advance_ok(b) ? 1 : 0;
  }
  expect("requests_served", st.requests_served, d.serve_responses());
  expect("requests_rejected", st.requests_rejected, d.invalid_errors());
  expect("requests_failed", st.requests_failed, d.other_errors());
  expect("admission_rejected", st.admission_rejected, d.admission_errors());
  expect("snapshots_advanced", st.snapshots_advanced, reported);
  expect("moves_quarantined", st.moves_quarantined, 0);
  expect("rebuilds", st.rebuilds, rebuilds);
  expect("incremental_updates", st.incremental_updates,
         in.batches.size() - rebuilds);
  if (d.admission_errors() != 0) {
    // An error frame sent at admission overtakes the responses still
    // pending on its connection, so later responses can't be matched.
    errors.push_back("the server turned away " +
                     std::to_string(d.admission_errors()) +
                     " request(s) at admission (pending queue full)");
  }
  m["net.admission_rejected"] = {static_cast<double>(st.admission_rejected),
                                 "count"};
  m["csp.requests_rejected"] = {static_cast<double>(st.requests_rejected),
                                "count"};
  if (*exit_code != 0) {
    errors.push_back("server exited with " + std::to_string(*exit_code) +
                     " (its shutdown audit found the policy not "
                     "policy-aware k-anonymous)");
  }

  out.attempted = d.sent() + d.advances_sent();
  out.failed = d.failed();
  m["ops"] = {static_cast<double>(out.attempted), "count"};
  m["ops_failed"] = {static_cast<double>(out.failed), "count"};
  out.errors = std::move(errors);
  out.reports = d.reports();
  out.first_response = d.first_response();
  return out;
}

}  // namespace pasa_bench
