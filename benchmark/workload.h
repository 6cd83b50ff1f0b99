#ifndef PASA_BENCHMARK_WORKLOAD_H_
#define PASA_BENCHMARK_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/morton.h"
#include "lbs/poi.h"
#include "model/location_database.h"
#include "model/service_request.h"
#include "net/wire.h"
#include "pasa/incremental.h"

namespace pasa_bench {

/// Anonymity degree every workload serves at.
inline constexpr int kK = 50;
/// Requests a serving connection keeps in flight in a closed-loop phase.
inline constexpr size_t kClosedOutstanding = 8;
/// Serving connections (plus one operator connection).
inline constexpr size_t kServeConns = 2;

/// One traffic mix. See README.md for why each exists.
struct WorkloadSpec {
  const char* name = "";
  size_t users = 0;        ///< |D|, from BayAreaGenerator
  double rate = 0.0;       ///< open-loop offered load, req/s
  bool unique_params = false;  ///< every request carries a fresh token
  bool moving = false;     ///< snapshot advances interleave with serving
  int setup_runs = 0;      ///< server spawns timed for setup_s
  int probe_advances = 0;  ///< repair advances after serving (non-moving)
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Phase lengths of one run.
struct RunShape {
  double open_seconds = 10.0;
  double closed_seconds = 3.0;
  /// Overrides WorkloadSpec::users when non-zero (--smoke).
  size_t users = 0;
};
RunShape ShapeFor(double seconds, bool smoke);

/// One snapshot advance the run sends.
struct Batch {
  std::vector<pasa::UserMove> moves;
  bool expect_rebuild = false;
  /// Open-loop offset at which a `moving` advance is due; unused for the
  /// probe advances that follow the serving phases.
  double due_seconds = 0.0;
  std::string frame;  ///< encoded kSnapshotAdvance frame
};

/// Everything one run sends, derived from (workload, seed) before any
/// server starts: the snapshot, the POI set the server builds from the same
/// seed, the request stream pre-encoded per connection, and the advances.
struct Inputs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  pasa::LocationDatabase db;
  pasa::MapExtent extent;
  std::vector<pasa::PointOfInterest> pois;

  /// Request i: sender row, POI category, and (cold_lbs) a unique token.
  struct Request {
    uint32_t row = 0;
    uint8_t category = 0;
    uint64_t token = 0;
  };
  std::vector<Request> requests;
  size_t warmup = 0;  ///< [0, warmup): closed-loop warm-up
  size_t open = 0;    ///< [warmup, warmup + open): open loop
  /// [warmup + open, requests.size()): closed loop, time-bounded; sized so
  /// no server can exhaust it.

  /// Request i travels on connection i % kServeConns; arena[c] holds that
  /// connection's frames back to back and frame_end[c][j] ends its j-th.
  std::string arena[kServeConns];
  std::vector<uint32_t> frame_end[kServeConns];

  std::vector<Batch> batches;

  /// Order-sensitive hash of every byte and move above.
  uint64_t digest = 0;

  /// The service request behind request i.
  pasa::ServiceRequest MakeRequest(size_t i) const;
  /// The wire trace context request i carries.
  pasa::net::WireTraceContext Trace(size_t i) const;
};

pasa::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                const RunShape& shape);

/// The output check on one serve response: the cloak holds the sender's
/// true location, the anonymity group has at least k members, and the
/// request got a request id. Returns what failed, or "" when it passed.
std::string CheckServeResponse(const pasa::net::ServeResponseMsg& msg,
                               const pasa::Point& sender);

/// Applies moves to a snapshot by row index (O(|D|) copy instead of a
/// per-move user lookup).
pasa::LocationDatabase ApplyMovesByRow(
    const pasa::LocationDatabase& db,
    const std::vector<pasa::UserMove>& moves);

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_WORKLOAD_H_
