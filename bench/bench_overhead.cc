// Overhead gate for the instrumentation hooks: every hook must cost at most
// 5% of the path it instruments while disarmed (the production default),
// and so must the hooks an operator arms in production.
//
// Two workloads carry every measurement:
//   dp   the fully instrumented ComputeDpMatrix (the hottest span- and
//        counter-bearing path) on a Figure 4(a)-style 250k-user sample,
//        k = 50;
//   csp  the full CSP request path (validate, cloak, resilient LBS fetch
//        through the answer cache) over a 100k-request stream on 50k users
//        and 2,048 POIs, with the serving loop's memory-accounting hook: a
//        relaxed load per request and, while the accountant is armed, the
//        NetServer refresh every 64 requests and a full
//        CspServer::ReportMemory every 4,096 (the scrape cadence).
// Each workload runs the configurations its rows name once per repetition,
// interleaved (in reverse order on every other repetition) so drift on a
// shared host hits them alike. Each table row compares two configurations
// by the median over the 5 repetitions of their paired time ratio, which
// cancels host-speed swings between repetitions; a gated row over 5% fails
// the exit code. The "everything armed" row is reported for context.
//
// Run small with PASA_BENCH_SCALE (it scales every |D| and the stream).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "csp/server.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "index/binary_tree.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/tail_trace.h"
#include "obs/window.h"
#include "pasa/bulk_dp_binary.h"
#include "workload/bay_area.h"
#include "workload/requests.h"

namespace {

using namespace pasa;

constexpr int kReps = 5;
constexpr double kGatePercent = 5.0;

enum Config {
  kObsOff,           ///< metrics kill switch off, every hook disarmed
  kObsOn,            ///< kill switch on, every hook disarmed (production)
  kProfilerArmed,    ///< kObsOn + span-sampling profiler at its default rate
  kQuietFaults,      ///< kObsOn + injector armed, every point at p = 0
  kAccountantArmed,  ///< kObsOn + memory accountant armed
  kAllArmed,         ///< every hook above armed, plus the provenance ring,
                     ///< windows, SLO tracker and tail-trace ring
};

const char* ConfigName(Config config) {
  switch (config) {
    case kObsOff:
      return "obs off";
    case kObsOn:
      return "obs on, hooks disarmed";
    case kProfilerArmed:
      return "profiler armed";
    case kQuietFaults:
      return "fault injector armed, quiet plan";
    case kAccountantArmed:
      return "memory accountant armed";
    case kAllArmed:
      return "everything armed";
  }
  return "?";
}

// A plan naming every injection point with probability zero: the armed
// path runs end to end (lookup, schedule, probability draw) but no fault
// ever fires, isolating the bookkeeping cost.
fault::FaultPlan QuietPlan() {
  fault::FaultPlan plan;
  for (const std::string_view point : fault::KnownFaultPoints()) {
    fault::FaultPointConfig config{std::string(point)};
    config.probability = 0.0;
    plan.points.push_back(config);
  }
  return plan;
}

// Puts every hook into `config`'s state.
void Arm(Config config) {
  const bool all = config == kAllArmed;
  obs::Configure(obs::ObsOptions{.enabled = config != kObsOff});
  if (all) {
    obs::ProvenanceRing::Global().Enable();
    obs::WindowRegistry::Global().Enable();
    obs::SloTracker::Global().Enable();
    obs::TailTraceRing::Global().Enable();
  } else {
    obs::ProvenanceRing::Global().Disable();
    obs::WindowRegistry::Global().Disable();
    obs::SloTracker::Global().Disable();
    obs::TailTraceRing::Global().Disable();
  }
  if (all || config == kQuietFaults) {
    fault::FaultInjector::Global().Arm(QuietPlan(), 1);
  } else {
    fault::FaultInjector::Global().Disarm();
  }
  if (all || config == kAccountantArmed) {
    obs::MemoryAccountant::Global().Enable();
  } else {
    obs::MemoryAccountant::Global().Disable();
  }
  obs::Profiler& profiler = obs::Profiler::Global();
  if (all || config == kProfilerArmed) {
    if (!profiler.armed()) (void)profiler.Start();
  } else {
    profiler.Stop();
  }
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Seconds of kReps passes under each of `configs`, in repetition order,
// after one warm-up pass (page in the state, settle the allocator). A
// failed pass reads -1.
using Passes = std::map<Config, std::vector<double>>;
Passes Measure(std::vector<Config> configs,
               const std::function<double()>& pass) {
  Arm(kObsOn);
  (void)pass();
  Passes seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Config config : configs) {
      Arm(config);
      seconds[config].push_back(pass());
    }
    std::reverse(configs.begin(), configs.end());
  }
  Arm(kObsOn);
  return seconds;
}

struct Row {
  const char* workload;
  Config variant;
  Config baseline;
  bool gated;
};

// One row per distinct gated comparison, plus the context row.
constexpr Row kRows[] = {
    {"dp", kObsOn, kObsOff, true},
    {"dp", kProfilerArmed, kObsOn, true},
    {"csp", kQuietFaults, kObsOn, true},
    {"csp", kObsOn, kObsOff, true},
    {"csp", kAccountantArmed, kObsOff, true},
    {"csp", kAllArmed, kObsOff, false},
};

// The configurations `workload`'s rows compare.
std::vector<Config> ConfigsOf(const std::string& workload) {
  std::vector<Config> configs;
  for (const Row& row : kRows) {
    if (workload != row.workload) continue;
    for (const Config config : {row.baseline, row.variant}) {
      if (std::find(configs.begin(), configs.end(), config) ==
          configs.end()) {
        configs.push_back(config);
      }
    }
  }
  return configs;
}

// The dp workload: one instrumented Bulk_dp pass over a 250k-user sample.
Passes MeasureDp() {
  const BayAreaGenerator generator(bench_util::PaperScaleOptions());
  const LocationDatabase master = generator.GenerateMaster();
  const int k = 50;
  const LocationDatabase db =
      BayAreaGenerator::Sample(master, bench_util::Scaled(250'000), 2);
  Result<BinaryTree> tree = BinaryTree::Build(
      db, generator.extent(), TreeOptions{.split_threshold = k});
  if (!tree.ok()) {
    std::fprintf(stderr, "tree build failed: %s\n",
                 tree.status().ToString().c_str());
    return {};
  }
  return Measure(ConfigsOf("dp"), [&] {
    WallTimer timer;
    if (!ComputeDpMatrix(*tree, k, DpOptions{}).ok()) return -1.0;
    return timer.ElapsedSeconds();
  });
}

// The csp workload: one pass of the request stream through HandleRequest,
// cache flushed first so every pass does identical work, with the serving
// loop's memory-accounting hook after each request.
Passes MeasureCsp() {
  BayAreaOptions bay;
  bay.log2_map_side = 15;
  bay.num_intersections = 2000;
  bay.users_per_intersection = 10;
  bay.seed = 3;
  const BayAreaGenerator generator(bay);
  const LocationDatabase db =
      generator.Generate(bench_util::Scaled(50'000));
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
  Result<CspServer> csp = CspServer::Start(db, generator.extent(),
                                           PoiDatabase(std::move(pois)),
                                           options);
  if (!csp.ok()) {
    std::fprintf(stderr, "CSP start failed: %s\n",
                 csp.status().ToString().c_str());
    return {};
  }
  RequestGenerator requests(13);
  const std::vector<ServiceRequest> stream =
      requests.Draw(csp->snapshot(), bench_util::Scaled(100'000));
  obs::MemoryAccountant& accountant = obs::MemoryAccountant::Global();
  accountant.Reset();
  return Measure(ConfigsOf("csp"), [&] {
    csp->FlushAnswerCache();
    uint64_t served = 0;
    WallTimer timer;
    for (const ServiceRequest& sr : stream) {
      if (!csp->HandleRequest(sr).ok()) return -1.0;
      ++served;
      if (obs::MemoryAccounting()) {
        if (served % 64 == 0) {
          // NetServer::RefreshMemoryStats-shaped work.
          accountant.GetCounter("net/conn_buffers").Set(served);
          accountant.GetCounter("net/pending_payloads").Set(served / 2);
        }
        if (served % 4096 == 0) csp->ReportMemory(accountant);
      }
    }
    return timer.ElapsedSeconds();
  });
}

}  // namespace

int main() {
  bench_util::PrintHeader("Instrumentation overhead gate");
  const std::map<std::string, Passes> passes = {{"dp", MeasureDp()},
                                                {"csp", MeasureCsp()}};

  TablePrinter table({"workload", "variant", "baseline", "variant (s)",
                      "baseline (s)", "overhead", "gate"});
  bool pass = true;
  for (const Row& row : kRows) {
    const Passes& p = passes.at(row.workload);
    const auto variant = p.find(row.variant);
    const auto baseline = p.find(row.baseline);
    if (variant == p.end() || baseline == p.end()) {
      std::fprintf(stderr, "%s workload failed\n", row.workload);
      return 1;
    }
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
      const double v = variant->second[rep];
      const double b = baseline->second[rep];
      if (v < 0.0 || b <= 0.0) {
        std::fprintf(stderr, "%s pass failed\n", row.workload);
        return 1;
      }
      ratios.push_back(v / b);
    }
    const double percent = (Median(ratios) - 1.0) * 100.0;
    const bool ok = !row.gated || percent <= kGatePercent;
    pass = pass && ok;
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "%+.2f%%", percent);
    table.AddRow({row.workload, ConfigName(row.variant),
                  ConfigName(row.baseline),
                  TablePrinter::Cell(Median(variant->second), 4),
                  TablePrinter::Cell(Median(baseline->second), 4), overhead,
                  row.gated ? (ok ? "<= 5%: ok" : "<= 5%: FAIL") : "context"});
  }
  table.Print();
  std::printf(
      "\ntimes: median of %d interleaved passes; overhead: median of the\n"
      "%d per-repetition variant/baseline ratios\n",
      kReps, kReps);

  obs::Profiler::Global().Reset();
  bench_util::WriteMetricsSnapshot("overhead");
  return pass ? 0 : 1;
}
