// Memory footprint sweep: builds the full serving stack (snapshot, policy
// tree, configuration matrix, extracted policy, user index, POI grid,
// answer cache) at |D| = 10^4, 10^5 and 10^6 users and snapshots the
// per-subsystem byte accounting into BENCH_footprint.json, the capacity
// counterpart of the latency snapshots: benchstat compares a fresh run
// against bench/baseline/BENCH_footprint.json and flags any bytes-per-user
// regression, so a change that silently doubles a structure's footprint
// fails CI the same way a 2x slowdown would.
//
// The sweep snapshots a freshly started server, so its answer cache is
// empty. A fixed, seeded request stream is then served through
// CspServer::HandleRequest and the populated cache is reported as
// lbs/answer_cache_served: half the requests repeat a (cloak, category) key,
// half carry a unique token as cold traffic does.
//
// After the sweep, the audit ring is armed on a fresh 10^5 server and filled
// to its 65,536-record capacity with requests served through
// CspServer::HandleRequest, so every record carries a real tree path; its
// bytes are reported as obs/provenance_ring_full, the cost of running the
// server with --audit-out.
//
// Measurement keys are absolute (not PASA_BENCH_SCALE-scaled) so snapshots
// stay comparable across hosts; memory is deterministic per seed. Set
// PASA_FOOTPRINT_MAX=<users> to cap the sweep on constrained hosts —
// benchstat only compares keys both snapshots share, so a capped candidate
// still gates the sizes it ran.
//
// Usage: bench_footprint [--out PATH]   (default BENCH_footprint.json)

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "csp/server.h"
#include "obs/benchstat.h"
#include "obs/mem.h"
#include "obs/provenance.h"
#include "workload/bay_area.h"

namespace {

using namespace pasa;

constexpr size_t kSweep[] = {10'000, 100'000, 1'000'000};
/// |D| of the server the full audit ring is measured on.
constexpr size_t kRingUsers = 100'000;

/// A snapshot of `users` seeded Bay Area users and a CSP started on it.
struct Stack {
  LocationDatabase db;
  Result<CspServer> csp;
};

Stack StartStack(size_t users) {
  BayAreaOptions bay;
  bay.log2_map_side = 17;
  bay.seed = 3;
  const BayAreaGenerator generator(bay);
  LocationDatabase db = generator.Generate(users);

  Rng rng(9);
  std::vector<PointOfInterest> pois;
  for (size_t i = 0; i < 2048; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i),
        Point{static_cast<Coord>(rng.NextBounded(generator.extent().side())),
              static_cast<Coord>(rng.NextBounded(generator.extent().side()))},
        "poi"});
  }
  CspOptions options;
  options.k = 50;
  Result<CspServer> csp = CspServer::Start(
      db, generator.extent(), PoiDatabase(std::move(pois)), options);
  return Stack{std::move(db), std::move(csp)};
}

/// Serves |D|/10 requests from seeded senders; every other one carries a
/// unique 16-hex token. Returns the answer cache's bytes afterwards.
uint64_t ServedAnswerCacheBytes(CspServer& csp, const LocationDatabase& db) {
  Rng rng(11);
  const size_t requests = db.size() / 10;
  for (size_t i = 0; i < requests; ++i) {
    const UserLocation& row = db.row(rng.NextBounded(db.size()));
    ServiceRequest sr{row.user, row.location, {{"poi", "poi"}}};
    if (i % 2 == 1) {
      char token[17];
      std::snprintf(token, sizeof(token), "%016llx",
                    static_cast<unsigned long long>(rng.Next()));
      sr.params.push_back({"q", token});
    }
    csp.HandleRequest(sr).ok();
  }
  return csp.frontend().cache().ApproxBytes();
}

/// Arms the process-wide audit ring, fills it to capacity with requests
/// from seeded senders, and returns its bytes. Leaves the ring disarmed.
uint64_t FullProvenanceRingBytes(CspServer& csp, const LocationDatabase& db) {
  obs::ProvenanceRing& ring = obs::ProvenanceRing::Global();
  ring.Enable();
  Rng rng(13);
  while (ring.size() < ring.capacity()) {
    const UserLocation& row = db.row(rng.NextBounded(db.size()));
    csp.HandleRequest(ServiceRequest{row.user, row.location, {{"poi", "poi"}}})
        .ok();
  }
  const uint64_t bytes = ring.ApproxBytes();
  ring.Disable();
  return bytes;
}

std::string KeyPrefix(size_t users) {
  return "footprint/d" + std::to_string(users) + "/";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_footprint.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  size_t max_users = kSweep[sizeof(kSweep) / sizeof(kSweep[0]) - 1];
  if (const char* env = std::getenv("PASA_FOOTPRINT_MAX")) {
    max_users = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }

  bench_util::PrintHeader(
      "pasa memory footprint sweep: bytes per user vs |D|");

  obs::MemoryAccountant& accountant = obs::MemoryAccountant::Global();

  std::map<std::string, double> run;
  TablePrinter table({"|D|", "total MiB", "bytes/user", "policy tree MiB",
                      "snapshot MiB"});
  for (size_t users : kSweep) {
    if (users > max_users) {
      std::printf("(|D|=%zu skipped: PASA_FOOTPRINT_MAX=%zu)\n", users,
                  max_users);
      continue;
    }
    Stack stack = StartStack(users);
    const LocationDatabase& db = stack.db;
    Result<CspServer>& csp = stack.csp;
    if (!csp.ok()) {
      std::fprintf(stderr, "CSP start failed at |D|=%zu: %s\n", users,
                   csp.status().ToString().c_str());
      return 1;
    }

    accountant.Reset();
    csp->ReportMemory(accountant);
    obs::ReportObsMemory(accountant);

    const std::map<std::string, uint64_t> snapshot = accountant.Snapshot();
    const uint64_t total = accountant.TotalBytes();
    const double bytes_per_user = static_cast<double>(total) / users;
    const std::string prefix = KeyPrefix(users);
    run[prefix + "total_bytes"] = static_cast<double>(total);
    run[prefix + "bytes_per_user"] = bytes_per_user;
    for (const auto& [name, bytes] : snapshot) {
      run[prefix + name] = static_cast<double>(bytes);
    }
    run[prefix + "lbs/answer_cache_served"] =
        static_cast<double>(ServedAnswerCacheBytes(*csp, db));
    const double mib = 1024.0 * 1024.0;
    table.AddRow({std::to_string(users),
                  TablePrinter::Cell(total / mib, 1),
                  TablePrinter::Cell(bytes_per_user, 1),
                  TablePrinter::Cell(
                      snapshot.count("csp/policy_tree")
                          ? snapshot.at("csp/policy_tree") / mib
                          : 0.0,
                      1),
                  TablePrinter::Cell(snapshot.count("csp/snapshot")
                                         ? snapshot.at("csp/snapshot") / mib
                                         : 0.0,
                                     1)});
  }
  table.Print();

  if (kRingUsers <= max_users) {
    Stack stack = StartStack(kRingUsers);
    if (!stack.csp.ok()) {
      std::fprintf(stderr, "CSP start failed at |D|=%zu: %s\n", kRingUsers,
                   stack.csp.status().ToString().c_str());
      return 1;
    }
    const uint64_t ring_bytes = FullProvenanceRingBytes(*stack.csp, stack.db);
    run["footprint/obs/provenance_ring_full"] =
        static_cast<double>(ring_bytes);
    std::printf("\naudit ring at capacity (|D|=%zu): %.1f MiB\n", kRingUsers,
                ring_bytes / (1024.0 * 1024.0));
  }

  // Memory is deterministic per seed, so one run is the whole population:
  // stddev 0 makes the benchstat noise gate a pure threshold gate.
  const obs::benchstat::Snapshot snapshot =
      obs::benchstat::Aggregate("footprint", {run});
  const Status written = obs::benchstat::WriteSnapshotFile(snapshot, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %zu measurements to %s\n",
              snapshot.measurements.size(), out_path.c_str());
  return run.empty() ? 1 : 0;
}
