// pasa_loadgen — socket load generator for `pasa_cli serve --listen`.
//
//   pasa_loadgen --port P --in locations.csv --k 50
//                [--mode closed|open]       request pacing (default closed)
//                [--connections C]          concurrent connections (default 4)
//                [--requests N]             closed loop: total requests
//                [--duration-seconds S]     open loop: run time (default 2)
//                [--rate R]                 open loop: offered req/s total
//                [--wait-ready-seconds S]   retry-connect budget (default 10)
//                [--shutdown 1]             send kShutdownRequest at the end
//                [--benchstat-out FILE]     write a BENCH_net.json snapshot
//                [--name NAME]              snapshot name (default "net")
//                [--admin-port P]           cross-check the run against the
//                                           server's /metrics endpoint
//                [--trace-out FILE.json]    client-side Chrome trace_event
//                                           timeline (merge with the server's
//                                           via `pasa_cli trace-merge`)
//                [--latency-out FILE.csv]   per-request log: seq, originated
//                                           trace id, latency, outcome — for
//                                           offline joins against the
//                                           server's audit JSONL
//
// Closed loop: each connection issues its next request as soon as the
// previous response arrives — measures sustainable throughput. Open loop:
// requests are issued on a fixed schedule regardless of responses and
// latency is measured from the *scheduled* send time, so queueing delay is
// charged to the server (no coordinated omission).
//
// Every response is verified: the cloak must contain the sender's true
// location and group_size must be >= k — the load test doubles as an
// end-to-end k-anonymity check. Exit code 1 on any verification failure.
//
// Every request originates a wire v2 trace context (a fresh trace id with
// the client request span as parent), so the server's spans land in the
// same trace and the merged Perfetto timeline draws a flow arrow from the
// client span to the server's dispatch span.
//
// With --admin-port the end of the run scrapes GET /metrics from the
// server's admin plane and asserts that the server-side dispatched-request
// counter (pasa_net_requests_served) equals the client-side count of
// responses that went through dispatch — ok + verify failures + typed
// errors without a retry-after hint. Admission-control rejects carry
// retry_after_micros > 0 and never reach dispatch, so they are excluded;
// the check is skipped with a warning when transport errors make the
// client-side count unreliable.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "geo/rect.h"
#include "io/csv.h"
#include "model/location_database.h"
#include "net/client.h"
#include "net/http.h"
#include "net/wire.h"
#include "obs/benchstat.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/trace_sink.h"
#include "tools/cli_flags.h"

namespace {

using namespace pasa;
using tools::Flags;

/// One line of the --latency-out log.
struct LatencyRow {
  uint64_t seq = 0;       ///< request index across the whole run
  uint64_t trace_id = 0;  ///< originated wire trace id
  double latency = 0.0;   ///< seconds
  const char* outcome = "ok";
};

struct WorkerResult {
  std::vector<double> latencies;  ///< seconds per request
  std::vector<LatencyRow> rows;   ///< per-request log (every request)
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;     ///< typed Error frames (e.g. admission)
  /// Subset of `rejected` carrying retry_after_micros > 0: admission-control
  /// rejects, answered before dispatch (excluded from the /metrics
  /// cross-check).
  uint64_t rejected_admission = 0;
  uint64_t verify_failed = 0;
  uint64_t transport_failed = 0;
};

struct Shared {
  const LocationDatabase* db = nullptr;
  uint16_t port = 0;
  int k = 0;
  double connect_timeout = 10.0;
};

// Issues one serve request for row `row` and verifies the response. Each
// request originates its own trace context; the client request span covers
// send -> receive and the server adopts the context off the wire.
void OneRequest(net::NetClient& client, const Shared& shared, size_t row,
                WorkerResult* result, double scheduled_offset,
                const WallTimer& epoch) {
  const auto& entry = shared.db->row(row % shared.db->size());
  const ServiceRequest sr{entry.user, entry.location, {{"poi", "rest"}}};
  ++result->sent;

  obs::TraceContext ctx;
  ctx.trace_id = obs::NewTraceId();
  obs::ScopedTraceContext trace_scope(ctx);
  obs::ScopedSpan request_span("loadgen/request", obs::ScopedSpan::kRoot);
  const net::WireTraceContext wire{ctx.trace_id,
                                   obs::CurrentTraceContext().span_id,
                                   /*sampled=*/true};

  LatencyRow log_row;
  log_row.seq = row;
  log_row.trace_id = ctx.trace_id;
  struct RowAppender {  // every exit path below logs exactly one row
    WorkerResult* result;
    LatencyRow* row;
    ~RowAppender() { result->rows.push_back(*row); }
  } appender{result, &log_row};

  const double start = scheduled_offset >= 0.0 ? scheduled_offset
                                               : epoch.ElapsedSeconds();
  if (Status s = client.SendFrame(net::MsgType::kServeRequest,
                                  net::EncodeServiceRequest(sr), wire);
      !s.ok()) {
    ++result->transport_failed;
    log_row.outcome = "transport_failed";
    return;
  }
  Result<net::Frame> frame = client.ReadFrame(10.0);
  const double latency = epoch.ElapsedSeconds() - start;
  log_row.latency = latency;
  if (!frame.ok()) {
    ++result->transport_failed;
    log_row.outcome = "transport_failed";
    return;
  }
  if (frame->type == net::MsgType::kError) {
    ++result->rejected;
    log_row.outcome = "rejected";
    Result<net::ErrorMsg> err = net::DecodeError(frame->payload);
    if (err.ok() && err->retry_after_micros > 0) {
      ++result->rejected_admission;
      log_row.outcome = "rejected_admission";
    }
    return;
  }
  Result<net::ServeResponseMsg> msg = net::DecodeServeResponse(frame->payload);
  if (!msg.ok() || frame->type != net::MsgType::kServeResponse) {
    ++result->verify_failed;
    log_row.outcome = "verify_failed";
    return;
  }
  // The end-to-end anonymity check: the answer must come from a cloak that
  // masks the sender and is backed by at least k candidate senders.
  const Rect cloak{msg->cloak_x1, msg->cloak_y1, msg->cloak_x2, msg->cloak_y2};
  const bool masked = cloak.Contains(sr.location);
  const bool anonymous =
      msg->group_size >= static_cast<uint64_t>(shared.k);
  if (!masked || !anonymous || msg->rid <= 0) {
    ++result->verify_failed;
    log_row.outcome = "verify_failed";
    return;
  }
  ++result->ok;
  result->latencies.push_back(latency);
}

void ClosedLoopWorker(const Shared& shared, size_t worker, size_t workers,
                      uint64_t requests, WorkerResult* result) {
  Result<net::NetClient> client =
      net::NetClient::Connect(shared.port, shared.connect_timeout);
  if (!client.ok()) {
    result->transport_failed += requests;
    result->sent += requests;
    return;
  }
  WallTimer epoch;
  for (uint64_t i = 0; i < requests; ++i) {
    OneRequest(*client, shared, worker + i * workers, result, -1.0, epoch);
  }
}

void OpenLoopWorker(const Shared& shared, size_t worker, size_t workers,
                    double rate_per_conn, double duration,
                    WorkerResult* result) {
  Result<net::NetClient> client =
      net::NetClient::Connect(shared.port, shared.connect_timeout);
  if (!client.ok()) {
    ++result->transport_failed;
    return;
  }
  const double interval = rate_per_conn > 0.0 ? 1.0 / rate_per_conn : 0.0;
  WallTimer epoch;
  uint64_t i = 0;
  while (true) {
    // The request is *due* at i * interval; latency is charged from the
    // schedule, not from when we got around to sending.
    const double due = static_cast<double>(i) * interval;
    if (due >= duration) break;
    while (epoch.ElapsedSeconds() < due) {
      std::this_thread::yield();
    }
    OneRequest(*client, shared, worker + i * workers, result, due, epoch);
    ++i;
  }
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t index = std::min(
      values->size() - 1,
      static_cast<size_t>(q * static_cast<double>(values->size())));
  std::nth_element(values->begin(), values->begin() + index, values->end());
  return (*values)[index];
}

int Usage() {
  std::fprintf(stderr,
               "usage: pasa_loadgen --port P --in F.csv --k K\n"
               "  [--mode closed|open] [--connections C] [--requests N]\n"
               "  [--duration-seconds S] [--rate R] [--wait-ready-seconds S]\n"
               "  [--shutdown 1] [--benchstat-out F] [--name NAME]\n"
               "  [--admin-port P2] [--trace-out F.json] [--latency-out F.csv]"
               "\n");
  return 2;
}

// Pulls one unlabeled sample value out of a Prometheus text body.
bool FindMetricValue(const std::string& body, const std::string& name,
                     double* value) {
  const std::string prefix = name + " ";
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (body.compare(pos, prefix.size(), prefix) == 0) {
      *value = std::atof(body.c_str() + pos + prefix.size());
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

// The --admin-port end-of-run cross-check: server-side dispatched count
// (pasa_net_requests_served) must equal the client-side count of responses
// that went through dispatch. Returns 0 on match or skip, 1 on mismatch or
// scrape failure.
int CrossCheckAgainstMetrics(uint16_t admin_port, const WorkerResult& total,
                             double timeout) {
  Result<net::HttpResponse> metrics =
      net::HttpGet(admin_port, "/metrics", timeout);
  if (!metrics.ok()) {
    std::fprintf(stderr, "error: admin /metrics scrape failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  if (metrics->status != 200) {
    std::fprintf(stderr, "error: admin /metrics returned HTTP %d\n",
                 metrics->status);
    return 1;
  }
  double served = 0.0;
  if (!FindMetricValue(metrics->body, "pasa_net_requests_served", &served)) {
    std::fprintf(stderr,
                 "error: pasa_net_requests_served missing from /metrics "
                 "(%zu bytes)\n",
                 metrics->body.size());
    return 1;
  }
  if (total.transport_failed > 0) {
    // A transport error leaves the fate of the in-flight request unknown
    // (the server may or may not have dispatched it), so equality cannot
    // be asserted.
    std::fprintf(stderr,
                 "warning: skipping /metrics cross-check (%llu transport "
                 "error(s) make the client-side count unreliable)\n",
                 static_cast<unsigned long long>(total.transport_failed));
    return 0;
  }
  const uint64_t dispatched_errors = total.rejected - total.rejected_admission;
  const uint64_t expected = total.ok + total.verify_failed + dispatched_errors;
  const uint64_t server_side = static_cast<uint64_t>(served + 0.5);
  if (server_side != expected) {
    std::fprintf(stderr,
                 "error: /metrics cross-check FAILED: server dispatched "
                 "%llu, client saw %llu (%llu ok + %llu verify-failed + "
                 "%llu dispatched errors; %llu admission rejects excluded)\n",
                 static_cast<unsigned long long>(server_side),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(total.ok),
                 static_cast<unsigned long long>(total.verify_failed),
                 static_cast<unsigned long long>(dispatched_errors),
                 static_cast<unsigned long long>(total.rejected_admission));
    return 1;
  }
  std::printf("/metrics cross-check ok: server dispatched %llu == client "
              "count (%llu admission reject(s) excluded)\n",
              static_cast<unsigned long long>(server_side),
              static_cast<unsigned long long>(total.rejected_admission));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, 1);
  if (!flags.Has("port") || !flags.Has("in")) return Usage();
  const int64_t port = flags.GetInt("port", 0);
  if (port < 1 || port > 65535) return Usage();
  const std::string mode = flags.GetString("mode", "closed");
  if (mode != "closed" && mode != "open") return Usage();
  const size_t connections =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("connections", 4)));
  const uint64_t requests =
      static_cast<uint64_t>(std::max<int64_t>(1, flags.GetInt("requests",
                                                              10000)));
  const double duration = flags.GetDouble("duration-seconds", 2.0);
  const double rate = flags.GetDouble("rate", 20000.0);
  if (duration <= 0.0 || rate <= 0.0) return Usage();

  Result<LocationDatabase> db = LoadLocationDatabaseCsv(flags.GetString("in"));
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  if (db->size() == 0) {
    std::fprintf(stderr, "error: empty location database\n");
    return 1;
  }

  Shared shared;
  shared.db = &*db;
  shared.port = static_cast<uint16_t>(port);
  shared.k = static_cast<int>(flags.GetInt("k", 50));
  shared.connect_timeout = flags.GetDouble("wait-ready-seconds", 10.0);

  const bool tracing = flags.Has("trace-out");
  if (tracing) {
    obs::TraceEventSink::Global().SetCurrentThreadName("loadgen-main");
    obs::TraceEventSink::Global().Start();
  }

  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  WallTimer wall;
  for (size_t w = 0; w < connections; ++w) {
    WorkerResult* result = &results[w];
    const uint64_t share =
        requests / connections + (w < requests % connections ? 1 : 0);
    const double rate_per_conn = rate / static_cast<double>(connections);
    workers.emplace_back([&shared, &mode, tracing, w, connections, share,
                          rate_per_conn, duration, result] {
      if (tracing) {
        obs::TraceEventSink::Global().SetCurrentThreadName(
            "loadgen-conn-" + std::to_string(w));
      }
      if (mode == "closed") {
        ClosedLoopWorker(shared, w, connections, share, result);
      } else {
        OpenLoopWorker(shared, w, connections, rate_per_conn, duration,
                       result);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed = wall.ElapsedSeconds();

  WorkerResult total;
  std::vector<double> latencies;
  for (WorkerResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.rejected += r.rejected;
    total.rejected_admission += r.rejected_admission;
    total.verify_failed += r.verify_failed;
    total.transport_failed += r.transport_failed;
    latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
  }
  double sum = 0.0;
  for (const double v : latencies) sum += v;
  const double mean = latencies.empty()
                          ? 0.0
                          : sum / static_cast<double>(latencies.size());
  const double p50 = Percentile(&latencies, 0.50);
  const double p95 = Percentile(&latencies, 0.95);
  const double p99 = Percentile(&latencies, 0.99);
  const double throughput =
      elapsed > 0.0 ? static_cast<double>(total.ok) / elapsed : 0.0;

  std::printf(
      "%s loop, %zu connection(s): %llu sent, %llu ok, %llu rejected, "
      "%llu transport errors, %llu VERIFY FAILURES in %.3f s\n",
      mode.c_str(), connections,
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.transport_failed),
      static_cast<unsigned long long>(total.verify_failed), elapsed);
  std::printf("throughput %.0f req/s; latency mean %.1f us, p50 %.1f us, "
              "p95 %.1f us, p99 %.1f us\n",
              throughput, mean * 1e6, p50 * 1e6, p95 * 1e6, p99 * 1e6);

  if (tracing) {
    obs::TraceEventSink& sink = obs::TraceEventSink::Global();
    sink.Stop();
    const Status s = sink.WriteChromeTraceFile(flags.GetString("trace-out"));
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote client trace to %s\n",
                flags.GetString("trace-out").c_str());
  }

  if (flags.Has("latency-out")) {
    const std::string path = flags.GetString("latency-out");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "seq,trace_id,latency_seconds,outcome\n");
    for (const WorkerResult& r : results) {
      for (const LatencyRow& row : r.rows) {
        std::fprintf(f, "%llu,%s,%.9f,%s\n",
                     static_cast<unsigned long long>(row.seq),
                     obs::TraceIdHex(row.trace_id).c_str(), row.latency,
                     row.outcome);
      }
    }
    std::fclose(f);
    std::printf("wrote per-request latency log to %s\n", path.c_str());
  }

  int cross_check_rc = 0;
  if (flags.Has("admin-port")) {
    const int64_t admin_port = flags.GetInt("admin-port", 0);
    if (admin_port < 1 || admin_port > 65535) return Usage();
    // Scrape before --shutdown so the admin plane is still answering.
    cross_check_rc = CrossCheckAgainstMetrics(
        static_cast<uint16_t>(admin_port), total, shared.connect_timeout);
  }

  if (flags.Has("shutdown")) {
    // When stdout is a pipe into the server (tools/net_smoke.cmake), the
    // server closes its end on exit: flush the report while it is still
    // reading, or the flush at our exit raises SIGPIPE.
    std::fflush(stdout);
    Result<net::NetClient> client =
        net::NetClient::Connect(shared.port, shared.connect_timeout);
    if (client.ok()) {
      client->Call(net::MsgType::kShutdownRequest, "", 5.0);
    }
  }

  if (flags.Has("benchstat-out")) {
    // Benchstat measurements are times (higher = regression), so record
    // seconds-per-request rather than req/s.
    std::map<std::string, double> run;
    run["net/seconds_per_request"] =
        throughput > 0.0 ? 1.0 / throughput : 1.0;
    run["net/latency_mean_seconds"] = mean;
    run["net/latency_p99_seconds"] = p99;
    const obs::benchstat::Snapshot snapshot = obs::benchstat::Aggregate(
        flags.GetString("name", "net"), {run});
    const Status s = obs::benchstat::WriteSnapshotFile(
        snapshot, flags.GetString("benchstat-out"));
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (total.verify_failed > 0) return 1;
  if (total.ok == 0) {
    std::fprintf(stderr, "error: no request succeeded\n");
    return 1;
  }
  return cross_check_rc;
}
