// pasa_bench — the repository's benchmark: end-to-end numbers from the real
// server over loopback, per-layer numbers from an in-process traced replay
// of the same seeded inputs. See README.md.
//
//   pasa_bench --server build/tools/pasa_cli --seed S [--workload W]
//              [--seconds T] [--traced] [--repeat N] [--out results.json]
//              [--spec BENCHMARK.json] [--work-dir DIR]
//              [--parent-server PARENT_CLI [--parent-out parent.json]]
//   pasa_bench --compare A.json B.json [--spec BENCHMARK.json]
//   pasa_bench --smoke --server build/tools/pasa_cli [--spec ...]
//   pasa_bench --digest --workload W --seed S
//
// Every run prints each metric with its unit. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}
// carrying the spec's end-to-end metrics (per-layer ones with --traced),
// medians over --repeat, when exactly one workload runs. Any failed output
// check clears "correct", drops the metrics and makes the exit code 1.
// With --parent-server, every seed also runs against the parent's server,
// the two sides alternating which goes first, and the end-to-end medians
// are compared as --compare does; a regression makes the exit code 1.

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "loadgen.h"
#include "obs/json.h"
#include "replay.h"
#include "server_process.h"
#include "span_recorder.h"
#include "stats.h"
#include "workload.h"

namespace pasa_bench {
namespace {

using pasa::Result;
using pasa::Status;
namespace json = pasa::obs::json;

/// Open-loop requests the traced replay walks through every layer.
constexpr size_t kTracedRequests = 20'000;
constexpr size_t kSmokeTracedRequests = 1'000;

struct Flags {
  std::map<std::string, std::string> values;
  std::vector<std::string> positional;
  bool Has(const std::string& key) const { return values.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& def) const {
    const auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
};

// --key value pairs; --traced, --smoke and --digest take no value, and
// --compare takes two.
Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg == "traced" || arg == "smoke" || arg == "digest" ||
        arg == "compare" || i + 1 >= argc) {
      flags.values[arg] = "1";
    } else {
      flags.values[arg] = argv[++i];
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: pasa_bench --server PASA_CLI [--workload W] [--seed S]\n"
      "                  [--seconds T] [--traced] [--repeat N]\n"
      "                  [--out F.json] [--spec BENCHMARK.json]\n"
      "                  [--work-dir DIR]\n"
      "                  [--parent-server PARENT_CLI [--parent-out F.json]]\n"
      "       pasa_bench --compare A.json B.json [--spec BENCHMARK.json]\n"
      "       pasa_bench --smoke --server PASA_CLI [--spec BENCHMARK.json]\n"
      "       pasa_bench --digest --workload W --seed S\n"
      "workloads: hot_1m hot_100k cold_lbs moving\n");
  return 2;
}

// ---------------------------------------------------------------------------
// The spec: BENCHMARK.json's metric lists.

struct SpecMetric {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  ///< end-to-end only
};
struct Spec {
  std::vector<SpecMetric> end_to_end;
  std::vector<SpecMetric> per_layer;
};

Result<json::Value> ReadJson(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return json::Parse(text.str());
}

Result<Spec> LoadSpec(const std::string& path) {
  Result<json::Value> doc = ReadJson(path);
  if (!doc.ok()) return doc.status();
  Spec spec;
  for (const auto& [key, list] :
       {std::pair<const char*, std::vector<SpecMetric>*>{"end_to_end",
                                                         &spec.end_to_end},
        {"per_layer", &spec.per_layer}}) {
    const json::Value* items = doc->Find(key);
    if (items == nullptr || !items->is_array()) {
      return Status::InvalidArgument(path + ": no " + key + " list");
    }
    for (const json::Value& item : items->array()) {
      const json::Value* name = item.Find("name");
      const json::Value* unit = item.Find("unit");
      const json::Value* better = item.Find("better");
      if (name == nullptr || unit == nullptr || better == nullptr) {
        return Status::InvalidArgument(path + ": metric without name/unit");
      }
      const json::Value* bound = item.Find("bound");
      list->push_back(SpecMetric{name->str(), unit->str(),
                                 better->str() == "higher",
                                 bound == nullptr ? 0.0 : bound->number()});
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// One run.

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  MetricMap metrics;
};

struct Options {
  std::string server;
  int server_cpu = 0;
  std::string work_dir;
  RunShape shape;
  bool smoke = false;
};

Result<RunResult> RunOnce(const WorkloadSpec& spec, uint64_t seed,
                          bool traced, const Options& options) {
  Result<Inputs> in = MakeInputs(spec, seed, options.shape);
  if (!in.ok()) return in.status();
  const std::string work = options.work_dir + "/" + spec.name;
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  if (ec) return Status::Internal("cannot create " + work);
  const std::string csv = work + "/locations.csv";
  if (Status s = pasa::SaveLocationDatabaseCsv(in->db, csv); !s.ok()) {
    return s;
  }

  Result<E2eOutcome> e2e =
      RunEndToEnd(*in, options.shape,
                  {options.server, csv, work, options.server_cpu});
  if (!e2e.ok()) return e2e.status();

  const size_t traced_requests =
      options.smoke ? kSmokeTracedRequests : kTracedRequests;
  std::unique_ptr<SpanRecorder> recorder;
  if (traced) {
    recorder = std::make_unique<SpanRecorder>(in->warmup / 8 +
                                              12 * traced_requests + 256);
  }
  Result<ReplayOutcome> replay =
      RunReplay(*in, csv, e2e->first_response, e2e->reports, recorder.get(),
                traced_requests);
  if (!replay.ok()) return replay.status();

  RunResult run;
  run.workload = spec.name;
  run.seed = seed;
  run.traced = traced;
  run.attempted = e2e->attempted;
  run.failed = e2e->failed;
  run.errors = std::move(e2e->errors);
  run.errors.insert(run.errors.end(), replay->errors.begin(),
                    replay->errors.end());
  run.metrics = std::move(e2e->metrics);
  for (auto& [name, metric] : replay->metrics) run.metrics[name] = metric;

  if (traced) {
    MetricMap& m = run.metrics;
    m["trace.span_cost_ns"] = {SpanRecorder::MeasureSpanCostNs(), "ns"};
    // What one request costs the serving loop beyond decode, handle and
    // encode: syscalls, admission, dispatch, net-level tracing.
    m["net.loop_us"] = {1e6 / m["max_rps_wall"].value -
                            (m["net.req_decode_us"].value +
                             m["csp.handle_us"].value +
                             m["net.resp_encode_us"].value),
                        "us"};
    const std::string trace = work + "/trace.json";
    if (Status s = recorder->WriteChromeTrace(trace); !s.ok()) return s;
    if (options.smoke) {
      if (Status s = CheckChromeTrace(trace); !s.ok()) {
        run.errors.push_back("trace check: " + s.ToString());
      }
    }
  }
  for (const auto& [name, metric] : run.metrics) {
    if (!std::isfinite(metric.value)) {
      run.errors.push_back("metric " + name + " is not finite");
    }
  }
  return run;
}

void PrintRun(const RunResult& run) {
  std::printf("\n%s seed %" PRIu64 "%s: %" PRIu64 " ops, %" PRIu64
              " failed, %s\n",
              run.workload.c_str(), run.seed, run.traced ? " (traced)" : "",
              run.attempted, run.failed,
              run.errors.empty() ? "all output checks passed"
                                 : "OUTPUT CHECKS FAILED");
  for (const std::string& error : run.errors) {
    std::printf("  check failed: %s\n", error.c_str());
  }
  for (const auto& [name, metric] : run.metrics) {
    std::printf("  %-26s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Results file and summaries.

struct Summary {
  std::string unit;
  std::vector<double> values;
};
using WorkloadSummary = std::map<std::string, std::map<std::string, Summary>>;

WorkloadSummary Summarize(const std::vector<RunResult>& runs) {
  WorkloadSummary out;
  for (const RunResult& run : runs) {
    for (const auto& [name, metric] : run.metrics) {
      Summary& s = out[run.workload][name];
      s.unit = metric.unit;
      s.values.push_back(metric.value);
    }
  }
  return out;
}

json::Value MetricJson(const Metric& metric) {
  return json::Value::MakeObject(
      {{"value", json::Value::MakeNumber(metric.value)},
       {"unit", json::Value::MakeString(metric.unit)}});
}

json::Value ToJson(const std::vector<RunResult>& runs) {
  using V = json::Value;
  std::vector<V> run_items;
  for (const RunResult& run : runs) {
    std::map<std::string, V> metrics;
    for (const auto& [name, metric] : run.metrics) {
      metrics[name] = MetricJson(metric);
    }
    std::vector<V> errors;
    for (const std::string& e : run.errors) errors.push_back(V::MakeString(e));
    run_items.push_back(V::MakeObject({
        {"workload", V::MakeString(run.workload)},
        {"seed", V::MakeNumber(static_cast<double>(run.seed))},
        {"traced", V::MakeBool(run.traced)},
        {"correct", V::MakeBool(run.errors.empty())},
        {"errors", V::MakeArray(std::move(errors))},
        {"attempted", V::MakeNumber(static_cast<double>(run.attempted))},
        {"failed", V::MakeNumber(static_cast<double>(run.failed))},
        {"metrics", V::MakeObject(std::move(metrics))},
    }));
  }
  std::map<std::string, V> summary;
  for (const auto& [workload, metrics] : Summarize(runs)) {
    std::map<std::string, V> per_metric;
    for (const auto& [name, s] : metrics) {
      const Quartiles q = ComputeQuartiles(s.values);
      per_metric[name] = V::MakeObject({
          {"unit", V::MakeString(s.unit)},
          {"n", V::MakeNumber(static_cast<double>(s.values.size()))},
          {"q1", V::MakeNumber(q.q1)},
          {"median", V::MakeNumber(q.median)},
          {"q3", V::MakeNumber(q.q3)},
      });
    }
    summary[workload] = V::MakeObject(std::move(per_metric));
  }
  return V::MakeObject({{"runs", V::MakeArray(std::move(run_items))},
                        {"summary", V::MakeObject(std::move(summary))}});
}

void PrintSummary(const std::vector<RunResult>& runs) {
  for (const auto& [workload, metrics] : Summarize(runs)) {
    std::printf("\n%s: median [q1, q3] over %zu run(s)\n", workload.c_str(),
                metrics.begin()->second.values.size());
    for (const auto& [name, s] : metrics) {
      const Quartiles q = ComputeQuartiles(s.values);
      std::printf("  %-26s %14.6g [%.6g, %.6g] %s (IQR %.1f%% of median)\n",
                  name.c_str(), q.median, q.q1, q.q3, s.unit.c_str(),
                  q.median != 0.0 ? 100.0 * (q.q3 - q.q1) / std::fabs(q.median)
                                  : 0.0);
    }
  }
}

// The contract line: one JSON object, the spec's metrics as medians.
void PrintResultLine(const std::vector<RunResult>& runs,
                     const std::vector<SpecMetric>& wanted, bool correct) {
  using V = json::Value;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RunResult& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
  }
  std::map<std::string, V> metrics;
  if (correct) {
    const WorkloadSummary summary = Summarize(runs);
    const std::map<std::string, Summary>& mine = summary.begin()->second;
    for (const SpecMetric& metric : wanted) {
      metrics[metric.name] = MetricJson(
          {ComputeQuartiles(mine.at(metric.name).values).median, metric.unit});
    }
  }
  const V line = V::MakeObject({
      {"correct", V::MakeBool(correct)},
      {"attempted", V::MakeNumber(static_cast<double>(attempted))},
      {"failed", V::MakeNumber(static_cast<double>(failed))},
      {"metrics", V::MakeObject(std::move(metrics))},
  });
  std::printf("%s\n", json::Serialize(line).c_str());
  std::fflush(stdout);
}

// Every wanted metric must be present with the spec's unit.
std::vector<std::string> MissingMetrics(const RunResult& run,
                                        const std::vector<SpecMetric>& wanted) {
  std::vector<std::string> missing;
  for (const SpecMetric& metric : wanted) {
    const auto it = run.metrics.find(metric.name);
    if (it == run.metrics.end()) {
      missing.push_back(metric.name + " was not produced");
    } else if (it->second.unit != metric.unit) {
      missing.push_back(metric.name + " has unit " + it->second.unit +
                        ", the spec says " + metric.unit);
    }
  }
  return missing;
}

// ---------------------------------------------------------------------------
// Modes.

// Is results document B worse than A, median against median, by more than
// a metric's bound? Returns the exit code: 0 when nothing regressed.
int Compare(const json::Value& a, const json::Value& b, const Spec& spec) {
  const json::Value* sa = a.Find("summary");
  const json::Value* sb = b.Find("summary");
  if (sa == nullptr || sb == nullptr || !sa->is_object() ||
      !sb->is_object()) {
    std::fprintf(stderr, "error: a results file has no summary\n");
    return 1;
  }
  int regressions = 0;
  int compared = 0;
  std::printf("%-10s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric",
              "A median", "B median", "change", "bound", "verdict");
  for (const auto& [workload, a_metrics] : sa->object()) {
    const json::Value* b_metrics = sb->Find(workload);
    if (b_metrics == nullptr) continue;
    for (const SpecMetric& metric : spec.end_to_end) {
      const json::Value* ma = a_metrics.Find(metric.name);
      const json::Value* mb = b_metrics->Find(metric.name);
      if (ma == nullptr || mb == nullptr) continue;
      const double va = ma->Find("median")->number();
      const double vb = mb->Find("median")->number();
      const double change = va != 0.0 ? (vb - va) / std::fabs(va) : 0.0;
      const double worse = metric.higher_is_better ? -change : change;
      const char* verdict = worse > metric.bound    ? "REGRESSED"
                            : -worse > metric.bound ? "improved"
                                                    : "ok";
      regressions += worse > metric.bound ? 1 : 0;
      ++compared;
      std::printf("%-10s %-22s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
                  workload.c_str(), metric.name.c_str(), va, vb,
                  100.0 * change, 100.0 * metric.bound, verdict);
    }
  }
  std::printf("%d of %d (workload, metric) pair(s) regressed beyond their "
              "bound\n",
              regressions, compared);
  return regressions == 0 && compared > 0 ? 0 : 1;
}

int RunCompare(const std::string& a_path, const std::string& b_path,
               const Spec& spec) {
  Result<json::Value> a = ReadJson(a_path);
  Result<json::Value> b = ReadJson(b_path);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  return Compare(*a, *b, spec);
}

Status WriteResults(const std::string& path,
                    const std::vector<RunResult>& runs) {
  std::ofstream out(path);
  out << json::Serialize(ToJson(runs)) << "\n";
  if (!out) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

int RunSmoke(const Options& options, const Spec& spec) {
  bool ok = true;
  for (const WorkloadSpec& workload : Workloads()) {
    for (const bool traced : {false, true}) {
      Result<RunResult> run = RunOnce(workload, 1, traced, options);
      if (!run.ok()) {
        std::printf("%s: %s\n", workload.name, run.status().ToString().c_str());
        ok = false;
        continue;
      }
      for (std::string& missing :
           MissingMetrics(*run, traced ? spec.per_layer : spec.end_to_end)) {
        run->errors.push_back(std::move(missing));
      }
      PrintRun(*run);
      ok = ok && run->errors.empty();
    }
  }
  std::printf("\nsmoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

std::string DefaultWorkDir() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string("pasa_bench_work")
            : (exe.parent_path() / "work").string();
}

}  // namespace
}  // namespace pasa_bench

int main(int argc, char** argv) {
  using namespace pasa_bench;
  const Flags flags = ParseFlags(argc, argv);
  Result<Spec> spec = LoadSpec(flags.Get("spec", "BENCHMARK.json"));
  if (flags.Has("compare")) {
    if (flags.positional.size() != 2) return Usage();
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    return RunCompare(flags.positional[0], flags.positional[1], *spec);
  }

  const uint64_t seed = std::strtoull(flags.Get("seed", "1").c_str(),
                                      nullptr, 10);
  const double seconds = std::atof(flags.Get("seconds", "10").c_str());
  const int repeat = std::atoi(flags.Get("repeat", "1").c_str());
  if (seconds < 1.0 || seconds > 60.0 || repeat < 1 ||
      seed > static_cast<uint64_t>(INT64_MAX) - static_cast<uint64_t>(repeat)) {
    return Usage();
  }
  std::vector<const WorkloadSpec*> workloads;
  if (flags.Has("workload")) {
    const WorkloadSpec* w = FindWorkload(flags.Get("workload", ""));
    if (w == nullptr) return Usage();
    workloads.push_back(w);
  } else {
    for (const WorkloadSpec& w : Workloads()) workloads.push_back(&w);
  }

  Options options;
  options.smoke = flags.Has("smoke");
  options.shape = ShapeFor(seconds, options.smoke);
  if (flags.Has("digest")) {
    if (workloads.size() != 1) return Usage();
    Result<Inputs> in =
        MakeInputs(*workloads[0], seed, ShapeFor(seconds, /*smoke=*/true));
    if (!in.ok()) {
      std::fprintf(stderr, "error: %s\n", in.status().ToString().c_str());
      return 1;
    }
    std::printf("digest %016" PRIx64 "\n", in->digest);
    return 0;
  }
  if (!flags.Has("server")) return Usage();
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  options.server = flags.Get("server", "");
  options.work_dir = flags.Get("work-dir", DefaultWorkDir());
  std::optional<Options> parent;
  if (flags.Has("parent-server")) {
    parent = options;
    parent->server = flags.Get("parent-server", "");
  }
  for (const Options* o : {&options, parent ? &*parent : nullptr}) {
    if (o != nullptr && access(o->server.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "error: %s is not an executable\n",
                   o->server.c_str());
      return 1;
    }
  }
  // The client on one CPU, the server (and the speed gauge) on another:
  // unpinned, the scheduler moves them around and stalls of a few ms land
  // in most seconds.
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    std::fprintf(stderr, "error: pasa_bench needs two CPUs, one for the "
                         "client and one for the server\n");
    return 1;
  }
  PinToCpu(cpus[0]);
  options.server_cpu = cpus[1];
  if (parent) parent->server_cpu = cpus[1];
  if (options.smoke) return RunSmoke(options, *spec);

  const bool traced = flags.Has("traced");
  std::vector<RunResult> runs;
  std::vector<RunResult> parent_runs;
  bool correct = true;
  auto run_one = [&](const WorkloadSpec& workload, uint64_t s,
                     const Options& o, std::vector<RunResult>* into) {
    Result<RunResult> run = RunOnce(workload, s, traced, o);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", workload.name,
                   run.status().ToString().c_str());
      return false;
    }
    for (std::string& missing :
         MissingMetrics(*run, traced ? spec->per_layer : spec->end_to_end)) {
      run->errors.push_back(std::move(missing));
    }
    correct = correct && run->errors.empty();
    if (parent) std::printf("\n[%s]", &o == &options ? "change" : "parent");
    PrintRun(*run);
    into->push_back(std::move(*run));
    return true;
  };
  for (const WorkloadSpec* workload : workloads) {
    for (int r = 0; r < repeat; ++r) {
      const uint64_t s = seed + static_cast<uint64_t>(r);
      // With a parent, the two sides take turns going first, so a drift
      // in host speed weighs on both alike.
      const bool parent_first = parent && r % 2 == 0;
      if (parent_first && !run_one(*workload, s, *parent, &parent_runs)) {
        return 1;
      }
      if (!run_one(*workload, s, options, &runs)) return 1;
      if (parent && !parent_first &&
          !run_one(*workload, s, *parent, &parent_runs)) {
        return 1;
      }
    }
  }
  if (repeat > 1) {
    if (parent) {
      std::printf("\n[parent]");
      PrintSummary(parent_runs);
      std::printf("\n[change]");
    }
    PrintSummary(runs);
  }
  for (const auto& [flag, side] :
       {std::pair{"out", &runs}, std::pair{"parent-out", &parent_runs}}) {
    if (!flags.Has(flag)) continue;
    if (Status s = WriteResults(flags.Get(flag, ""), *side); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  int regressed = 0;
  if (parent) {
    std::printf("\nparent (A) against change (B):\n");
    regressed = Compare(ToJson(parent_runs), ToJson(runs), *spec);
  }
  if (workloads.size() == 1) {
    PrintResultLine(runs, traced ? spec->per_layer : spec->end_to_end,
                    correct);
  }
  return correct && regressed == 0 ? 0 : 1;
}
