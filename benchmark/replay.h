#ifndef PASA_BENCHMARK_REPLAY_H_
#define PASA_BENCHMARK_REPLAY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "span_recorder.h"
#include "stats.h"
#include "workload.h"

namespace pasa_bench {

struct ReplayOutcome {
  MetricMap metrics;  ///< per-layer metrics (traced replay only)
  /// Output checks that failed; empty when every check passed.
  std::vector<std::string> errors;
};

/// Replays the run's seeded inputs in-process, single-threaded, without
/// sockets. Always: rebuilds the server's policy with CspServer::Start,
/// requires its answer to request 0 (cloak, group size and POIs) to equal
/// the server's (`first_response`), and applies every batch with
/// AdvanceSnapshot, requiring each report's policy_cost to equal the one
/// the server sent (`reports`). With a
/// recorder, additionally times the calls into each layer: the server's
/// set-up from the CSV, the first `traced_requests` open-loop requests
/// through the wire codec, the CSP (armed as in production, and on a copy
/// with observability disarmed) and the benchmark's own LBS front end, and
/// each advance split into repair or rebuild and extraction on the
/// benchmark's own engine.
pasa::Result<ReplayOutcome> RunReplay(
    const Inputs& in, const std::string& csv_path,
    const std::optional<pasa::net::ServeResponseMsg>& first_response,
    const std::vector<pasa::net::SnapshotReportMsg>& reports,
    SpanRecorder* recorder, size_t traced_requests);

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_REPLAY_H_
