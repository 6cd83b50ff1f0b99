// pasa_benchstat — tracked performance trajectory for the bench harnesses.
//
//   pasa_benchstat run     --bench build/bench/bench_fig4a_bulk_time
//                          [--iterations 5] [--scale 0.01] [--name NAME]
//                          [--out BENCH_<name>.json] [--metrics-json PATH]
//   pasa_benchstat compare --baseline BENCH_a.json --candidate BENCH_b.json
//                          [--threshold 0.10] [--noise-sigma 2.0]
//
// `run` executes the harness N times, collecting for each run the
// subprocess wall-clock plus every span total / histogram mean from the
// metrics snapshot the harness writes (bench/out/<name>.metrics.json, via
// bench_util::WriteMetricsSnapshot), and writes a canonical
// BENCH_<name>.json with mean/stddev/min per measurement.
//
// `compare` diffs two snapshots and exits 1 when any shared measurement
// regressed beyond --threshold (and beyond --noise-sigma times the summed
// stddevs), so it can gate CI; see docs/observability.md for the
// walkthrough.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/file.h"
#include "obs/benchstat.h"
#include "obs/log.h"
#include "tools/cli_flags.h"

namespace {

using namespace pasa;
using tools::Flags;
namespace bs = obs::benchstat;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pasa_benchstat run     --bench BIN [--iterations N] [--scale S]\n"
      "                         [--name NAME] [--out FILE.json]\n"
      "                         [--metrics-json PATH]\n"
      "  pasa_benchstat compare --baseline A.json --candidate B.json\n"
      "                         [--threshold 0.10] [--noise-sigma 2.0]\n"
      "compare exits 1 when a shared measurement regressed beyond the "
      "threshold.\n");
  return 2;
}

int Fail(const Status& status) {
  obs::LogError("benchstat", "%s", status.ToString().c_str());
  return 1;
}

// One harness execution; returns the subprocess wall-clock in seconds or
// a negative value on failure.
double RunOnce(const std::string& command) {
  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(command.c_str());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return rc == 0 ? seconds : -1.0;
}

int RunCommand(const Flags& flags) {
  if (!flags.Has("bench")) return Usage();
  const std::string bench = flags.GetString("bench");
  if (!std::filesystem::exists(bench)) {
    return Fail(Status::InvalidArgument("no such bench binary: " + bench));
  }
  const int iterations =
      static_cast<int>(flags.GetInt("iterations", 5));
  if (iterations < 1) {
    return Fail(Status::InvalidArgument("--iterations must be >= 1"));
  }
  // The harnesses name their snapshots without the binary's "bench_"
  // prefix (bench_fig4a_bulk_time -> bench/out/fig4a_bulk_time.metrics.json).
  std::string stem = std::filesystem::path(bench).stem().string();
  if (stem.rfind("bench_", 0) == 0) stem = stem.substr(6);
  const std::string name = flags.GetString("name", stem);
  const std::string out = flags.GetString("out", "BENCH_" + name + ".json");
  const std::string metrics_json =
      flags.GetString("metrics-json", "bench/out/" + stem + ".metrics.json");

  std::string command = "\"" + bench + "\" > /dev/null";
  if (flags.Has("scale")) {
    command = "PASA_BENCH_SCALE=" + flags.GetString("scale") + " " + command;
  }

  std::vector<std::map<std::string, double>> runs;
  for (int i = 0; i < iterations; ++i) {
    std::error_code ec;
    std::filesystem::remove(metrics_json, ec);  // never read a stale file
    const double wall_seconds = RunOnce(command);
    if (wall_seconds < 0.0) {
      return Fail(Status::Internal("bench run failed: " + command));
    }
    std::map<std::string, double> samples;
    samples["wall_seconds"] = wall_seconds;
    if (std::filesystem::exists(metrics_json)) {
      Result<std::string> text = ReadFile(metrics_json);
      if (!text.ok()) return Fail(text.status());
      Result<obs::json::Value> document = obs::json::Parse(*text);
      if (document.ok()) {
        for (const auto& [key, value] :
             bs::MeasurementsFromMetricsJson(*document)) {
          samples[key] = value;
        }
      } else {
        obs::LogWarn("benchstat", "ignoring malformed %s: %s",
                     metrics_json.c_str(),
                     document.status().message().c_str());
      }
    } else {
      obs::LogDebug("benchstat",
                    "no metrics snapshot at %s; recording wall clock only",
                    metrics_json.c_str());
    }
    obs::LogInfo("benchstat", "run %d/%d of %s: %.3f s (%zu measurements)",
                 i + 1, iterations, name.c_str(), wall_seconds,
                 samples.size());
    runs.push_back(std::move(samples));
  }

  const bs::Snapshot snapshot = bs::Aggregate(name, runs);
  const Status status = bs::WriteSnapshotFile(snapshot, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s (%d iteration(s), %zu measurement(s))\n",
              out.c_str(), snapshot.iterations,
              snapshot.measurements.size());
  return 0;
}

int CompareCommand(const Flags& flags) {
  if (!flags.Has("baseline") || !flags.Has("candidate")) return Usage();
  Result<bs::Snapshot> baseline =
      bs::LoadSnapshotFile(flags.GetString("baseline"));
  if (!baseline.ok()) return Fail(baseline.status());
  Result<bs::Snapshot> candidate =
      bs::LoadSnapshotFile(flags.GetString("candidate"));
  if (!candidate.ok()) return Fail(candidate.status());

  bs::CompareOptions options;
  options.threshold = flags.GetDouble("threshold", options.threshold);
  options.noise_sigma = flags.GetDouble("noise-sigma", options.noise_sigma);
  if (options.threshold < 0.0 || options.noise_sigma < 0.0) {
    return Fail(Status::InvalidArgument(
        "--threshold and --noise-sigma must be >= 0"));
  }

  const bs::CompareReport report = bs::Compare(*baseline, *candidate,
                                               options);
  std::printf("baseline %s (%d it.) vs candidate %s (%d it.), threshold "
              "%+.0f%%\n%s",
              baseline->name.c_str(), baseline->iterations,
              candidate->name.c_str(), candidate->iterations,
              options.threshold * 100.0,
              bs::ReportTable(report).c_str());
  if (report.HasRegression()) {
    obs::LogError("benchstat", "performance regression detected");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (flags.Has("log-level")) {
    Result<obs::LogLevel> level =
        obs::ParseLogLevel(flags.GetString("log-level"));
    if (!level.ok()) return Usage();
    obs::Logger::Global().SetLevel(*level);
  }
  if (command == "run") return RunCommand(flags);
  if (command == "compare") return CompareCommand(flags);
  return Usage();
}
