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
//        and 2,048 POIs.
// Each workload runs the configurations its rows name once per repetition,
// interleaved (in reverse order on every other repetition) so drift on a
// shared host hits them alike. Each pass is timed in the calling thread's
// CPU time (CLOCK_THREAD_CPUTIME_ID): both workloads are single-threaded,
// and on a shared 4-vCPU host that cut each gated row's run-to-run spread
// to a third to two thirds of wall time's. Each table row compares two
// configurations by the median over the 5 repetitions of their paired time
// ratio, which cancels host-speed swings between repetitions; a gated row
// over 5% fails the exit code. The "everything armed" row is reported for
// context.
//
// Run small with PASA_BENCH_SCALE (it scales every |D| and the stream).

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "csp/server.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "index/binary_tree.h"
#include "obs/metrics.h"
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
  kQuietFaults,      ///< kObsOn + injector armed, every point at p = 0
  kAllArmed,         ///< kQuietFaults plus the provenance ring, windows,
                     ///< SLO tracker and tail-trace ring
};

const char* ConfigName(Config config) {
  switch (config) {
    case kObsOff:
      return "obs off";
    case kObsOn:
      return "obs on, hooks disarmed";
    case kQuietFaults:
      return "fault injector armed, quiet plan";
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
}

// Seconds of CPU time the calling thread has used.
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
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
    {"csp", kQuietFaults, kObsOn, true},
    {"csp", kObsOn, kObsOff, true},
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
    const double start = ThreadCpuSeconds();
    if (!ComputeDpMatrix(*tree, k, DpOptions{}).ok()) return -1.0;
    return ThreadCpuSeconds() - start;
  });
}

// The csp workload: one pass of the request stream through HandleRequest,
// cache flushed first so every pass does identical work.
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
  return Measure(ConfigsOf("csp"), [&] {
    csp->FlushAnswerCache();
    const double start = ThreadCpuSeconds();
    for (const ServiceRequest& sr : stream) {
      if (!csp->HandleRequest(sr).ok()) return -1.0;
    }
    return ThreadCpuSeconds() - start;
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
      "\ntimes: thread CPU seconds, median of %d interleaved passes;\n"
      "overhead: median of the %d per-repetition variant/baseline ratios\n",
      kReps, kReps);

  bench_util::WriteMetricsSnapshot("overhead");
  return pass ? 0 : 1;
}
