#ifndef PASA_BENCHMARK_LOADGEN_H_
#define PASA_BENCHMARK_LOADGEN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "stats.h"
#include "workload.h"

namespace pasa_bench {

/// Where the server binary is and where a run keeps its files.
struct ServerConfig {
  std::string binary;    ///< pasa_cli
  std::string csv_path;  ///< the snapshot the server loads
  std::string work_dir;  ///< audit log and server output
  int cpu = 0;           ///< CPU the server and the speed gauge run on
};

/// What the end-to-end run measured and checked.
struct E2eOutcome {
  MetricMap metrics;  ///< end-to-end metrics, net counts and diagnostics
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output checks that failed; empty when every check passed.
  std::vector<std::string> errors;
  /// The server's report for each batch of Inputs::batches, in order.
  std::vector<pasa::net::SnapshotReportMsg> reports;
  /// The server's response to request 0, served in the warm-up before any
  /// advance; empty when that request failed.
  std::optional<pasa::net::ServeResponseMsg> first_response;
};

/// Spawns the server (several times, for setup_s), then drives it over
/// loopback from this thread alone: two serving connections and one
/// operator connection on one epoll set, requests pipelined, every frame
/// pre-encoded. Phases: closed-loop warm-up, open loop at the workload's
/// rate (with advances in `moving`), closed loop for max_rps, repair
/// probes, stats, shutdown. A SpeedGauge on the server's CPU turns every
/// timing into nominal time; the wall-clock figures are reported beside
/// them. An error Result means the run could not be carried out at all
/// (no server, lost connection, timeout, a starved gauge).
pasa::Result<E2eOutcome> RunEndToEnd(const Inputs& in, const RunShape& shape,
                                     const ServerConfig& server);

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_LOADGEN_H_
