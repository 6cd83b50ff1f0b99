#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "geo/rect.h"
#include "net/wire.h"
#include "workload/bay_area.h"
#include "workload/movement.h"

namespace pasa_bench {

using pasa::Result;
using pasa::Status;

namespace {

const char* const kCategories[] = {"rest", "gas", "hospital"};

// The open-loop rate is far below any server's closed-loop capacity; the
// closed phase is sized for this many requests per second so it never runs
// out of pre-encoded frames.
constexpr double kClosedCapacityPerSecond = 150'000.0;

// Requests per user in the closed-loop warm-up: about 8.7 requests per
// (cloak, poi) key, so >99.9% of keys are cached before the open loop.
constexpr double kWarmupPerUser = 0.4;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Fnv {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
};

std::vector<pasa::UserMove> Draw(const pasa::LocationDatabase& db,
                                 const pasa::MapExtent& extent, size_t movers,
                                 uint64_t seed) {
  pasa::MovementOptions options;
  // Half a mover of slack so the product truncates to exactly `movers`.
  options.moving_fraction = (static_cast<double>(movers) + 0.5) /
                            static_cast<double>(db.size());
  options.seed = seed;
  return pasa::DrawMoves(db, extent, options);
}

constexpr size_t kNumPois = 512;

// The POI set `pasa_cli serve --seed <seed>` builds over `extent`.
std::vector<pasa::PointOfInterest> ServerPois(uint64_t seed,
                                              const pasa::MapExtent& extent) {
  pasa::Rng rng(seed);
  std::vector<pasa::PointOfInterest> pois;
  pois.reserve(kNumPois);
  for (size_t i = 0; i < kNumPois; ++i) {
    pois.push_back(pasa::PointOfInterest{
        static_cast<int64_t>(i),
        pasa::Point{static_cast<pasa::Coord>(rng.NextBounded(extent.side())),
                    static_cast<pasa::Coord>(rng.NextBounded(extent.side()))},
        kCategories[rng.NextBounded(3)]});
  }
  return pois;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"hot_1m", 1'000'000, 10'000.0, false, false, 3, 5},
      {"hot_100k", 100'000, 10'000.0, false, false, 7, 9},
      {"cold_lbs", 100'000, 10'000.0, true, false, 7, 9},
      {"moving", 100'000, 2'500.0, false, true, 7, 0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

RunShape ShapeFor(double seconds, bool smoke) {
  RunShape shape;
  if (smoke) {
    shape.open_seconds = 1.0;
    shape.closed_seconds = 0.5;
    shape.users = 5'000;
    return shape;
  }
  shape.open_seconds = seconds;
  shape.closed_seconds = std::clamp(0.3 * seconds, 0.5, 4.0);
  return shape;
}

std::string CheckServeResponse(const pasa::net::ServeResponseMsg& msg,
                               const pasa::Point& sender) {
  const pasa::Rect cloak{msg.cloak_x1, msg.cloak_y1, msg.cloak_x2,
                         msg.cloak_y2};
  if (!cloak.Contains(sender)) return "cloak does not contain the sender";
  if (msg.group_size < static_cast<uint64_t>(kK)) {
    return "anonymity group of " + std::to_string(msg.group_size) + " < k";
  }
  if (msg.rid <= 0) return "no request id";
  return "";
}


pasa::LocationDatabase ApplyMovesByRow(
    const pasa::LocationDatabase& db,
    const std::vector<pasa::UserMove>& moves) {
  std::vector<pasa::UserLocation> rows = db.rows();
  for (const pasa::UserMove& move : moves) rows[move.row].location = move.to;
  return pasa::LocationDatabase(std::move(rows));
}

pasa::ServiceRequest Inputs::MakeRequest(size_t i) const {
  const Request& r = requests[i];
  const pasa::UserLocation& row = db.row(r.row);
  pasa::ServiceRequest sr{row.user, row.location,
                          {{"poi", kCategories[r.category]}}};
  if (spec.unique_params) {
    char token[17];
    std::snprintf(token, sizeof(token), "%016llx",
                  static_cast<unsigned long long>(r.token));
    sr.params.push_back({"q", token});
  }
  return sr;
}

pasa::net::WireTraceContext Inputs::Trace(size_t i) const {
  const uint64_t trace_id = Mix(seed ^ 0x7472616365ULL, i) | 1;
  return {trace_id, Mix(trace_id, 1) | 1, /*sampled=*/true};
}

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                          const RunShape& shape) {
  Inputs in;
  in.spec = spec;
  if (shape.users != 0) in.spec.users = shape.users;
  in.seed = seed;
  pasa::BayAreaOptions options;
  options.seed = seed;
  in.db = pasa::BayAreaGenerator(options).Generate(in.spec.users);
  Result<pasa::MapExtent> extent =
      pasa::MapExtent::Covering(in.db.BoundingBox());
  if (!extent.ok()) return extent.status();
  in.extent = *extent;
  in.pois = ServerPois(seed, in.extent);

  // Advances. `moving` interleaves them with the open loop, one per
  // interval, every fourth moving 8% of users (above the 5% rebuild
  // fraction); the others send repair probes after serving.
  const size_t users = in.spec.users;
  const size_t one_percent = std::max<size_t>(1, users / 100);
  pasa::LocationDatabase evolving = in.db;
  std::vector<bool> moved(users, false);
  // Each batch is drawn against the snapshot its predecessors left behind.
  auto add_batch = [&](size_t movers, bool rebuild, double due, int j) {
    Batch batch;
    batch.expect_rebuild = rebuild;
    batch.due_seconds = due;
    batch.moves = Draw(evolving, in.extent, movers, Mix(seed, 1000 + j));
    for (const pasa::UserMove& move : batch.moves) moved[move.row] = true;
    evolving = ApplyMovesByRow(evolving, batch.moves);
    pasa::net::SnapshotAdvanceMsg msg;
    msg.moves = batch.moves;
    batch.frame = pasa::net::EncodeFrame(pasa::net::MsgType::kSnapshotAdvance,
                                         pasa::net::EncodeSnapshotAdvance(msg));
    in.batches.push_back(std::move(batch));
  };
  if (in.spec.moving) {
    const int n =
        std::max(4, static_cast<int>(std::lround(shape.open_seconds)));
    for (int j = 0; j < n; ++j) {
      const bool rebuild = j % 4 == 3;
      add_batch(rebuild ? 8 * one_percent : one_percent, rebuild,
                (j + 0.5) * shape.open_seconds / n, j);
    }
  } else {
    // 500 movers (fewer below 5·10^4 users): an incremental repair at every
    // size, small enough that the 10^6-user server absorbs a median's worth
    // of them within the run's time budget.
    const size_t movers = std::min<size_t>(one_percent, 500);
    for (int j = 0; j < in.spec.probe_advances; ++j) {
      add_batch(movers, false, 0.0, j);
    }
  }

  // Senders: every user, or in `moving` only users no batch moves, so no
  // request goes stale while the snapshot advances under it.
  std::vector<uint32_t> pool;
  pool.reserve(users);
  for (uint32_t row = 0; row < users; ++row) {
    if (!in.spec.moving || !moved[row]) pool.push_back(row);
  }
  if (pool.empty()) return Status::Internal("every user moves");

  in.warmup =
      static_cast<size_t>(kWarmupPerUser * static_cast<double>(users));
  in.open =
      static_cast<size_t>(std::llround(in.spec.rate * shape.open_seconds));
  const size_t total =
      in.warmup + in.open +
      static_cast<size_t>(
          std::llround(kClosedCapacityPerSecond * shape.closed_seconds));
  pasa::Rng rng(Mix(seed, 0x73747265616dULL));
  const uint64_t token_base = Mix(seed, 0x746f6b656eULL);
  in.requests.resize(total);
  for (size_t c = 0; c < kServeConns; ++c) {
    in.frame_end[c].reserve(total / kServeConns + 1);
  }
  for (size_t i = 0; i < total; ++i) {
    Inputs::Request& r = in.requests[i];
    r.row = pool[rng.NextBounded(pool.size())];
    r.category = static_cast<uint8_t>(rng.NextBounded(3));
    r.token = token_base ^ i;
    const size_t c = i % kServeConns;
    in.arena[c] += pasa::net::EncodeFrame(
        pasa::net::MsgType::kServeRequest,
        pasa::net::EncodeServiceRequest(in.MakeRequest(i)), in.Trace(i));
    in.frame_end[c].push_back(static_cast<uint32_t>(in.arena[c].size()));
  }

  Fnv fnv;
  for (const pasa::UserLocation& row : in.db.rows()) {
    fnv.U64(static_cast<uint64_t>(row.user));
    fnv.U64(static_cast<uint64_t>(row.location.x));
    fnv.U64(static_cast<uint64_t>(row.location.y));
  }
  for (size_t c = 0; c < kServeConns; ++c) {
    fnv.Bytes(in.arena[c].data(), in.arena[c].size());
  }
  for (const Batch& batch : in.batches) {
    fnv.Bytes(batch.frame.data(), batch.frame.size());
  }
  in.digest = fnv.h;
  return in;
}

}  // namespace pasa_bench
