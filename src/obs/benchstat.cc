#include "obs/benchstat.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/file.h"
#include "common/table.h"
#include "obs/export.h"

namespace pasa {
namespace obs {
namespace benchstat {

Snapshot Aggregate(const std::string& name,
                   const std::vector<std::map<std::string, double>>& runs) {
  Snapshot snapshot;
  snapshot.name = name;
  snapshot.iterations = static_cast<int>(runs.size());
  std::map<std::string, std::vector<double>> samples_of;
  for (const auto& run : runs) {
    for (const auto& [key, value] : run) samples_of[key].push_back(value);
  }
  for (const auto& [key, samples] : samples_of) {
    Measurement m;
    m.samples = samples.size();
    m.min = *std::min_element(samples.begin(), samples.end());
    double sum = 0.0;
    for (const double v : samples) sum += v;
    m.mean = sum / static_cast<double>(samples.size());
    if (samples.size() > 1) {
      double sq = 0.0;
      for (const double v : samples) sq += (v - m.mean) * (v - m.mean);
      m.stddev = std::sqrt(sq / static_cast<double>(samples.size() - 1));
    }
    snapshot.measurements[key] = m;
  }
  return snapshot;
}

std::string ToJson(const Snapshot& snapshot) {
  std::string out = "{\n  \"name\": \"" + JsonEscape(snapshot.name) +
                    "\",\n  \"iterations\": " +
                    std::to_string(snapshot.iterations) +
                    ",\n  \"measurements\": {";
  bool first = true;
  char buf[256];
  for (const auto& [key, m] : snapshot.measurements) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"mean\": %s, \"stddev\": %s, "
                  "\"min\": %s, \"samples\": %" PRIu64 "}",
                  first ? "" : ",", JsonEscape(key).c_str(),
                  JsonNumber(m.mean).c_str(), JsonNumber(m.stddev).c_str(),
                  JsonNumber(m.min).c_str(), m.samples);
    out += buf;
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Result<Snapshot> FromJson(const json::Value& document) {
  if (!document.is_object()) {
    return Status::InvalidArgument("benchstat snapshot: not a JSON object");
  }
  Snapshot snapshot;
  if (const json::Value* name = document.Find("name")) {
    snapshot.name = name->str();
  }
  if (const json::Value* iterations = document.Find("iterations")) {
    snapshot.iterations = static_cast<int>(iterations->number());
  }
  const json::Value* measurements = document.Find("measurements");
  if (measurements == nullptr || !measurements->is_object()) {
    return Status::InvalidArgument(
        "benchstat snapshot: missing \"measurements\" object");
  }
  for (const auto& [key, entry] : measurements->object()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("benchstat snapshot: measurement '" +
                                     key + "' is not an object");
    }
    Measurement m;
    if (const json::Value* v = entry.Find("mean")) m.mean = v->number();
    if (const json::Value* v = entry.Find("stddev")) m.stddev = v->number();
    if (const json::Value* v = entry.Find("min")) m.min = v->number();
    if (const json::Value* v = entry.Find("samples")) {
      m.samples = static_cast<uint64_t>(v->number());
    }
    snapshot.measurements[key] = m;
  }
  return snapshot;
}

Status WriteSnapshotFile(const Snapshot& snapshot, const std::string& path) {
  return WriteTextFile(path, ToJson(snapshot));
}

Result<Snapshot> LoadSnapshotFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  Result<json::Value> document = json::Parse(*text);
  if (!document.ok()) {
    return Status::InvalidArgument("snapshot file " + path + ": " +
                                   document.status().message());
  }
  return FromJson(*document);
}

std::map<std::string, double> MeasurementsFromMetricsJson(
    const json::Value& document) {
  std::map<std::string, double> measurements;
  if (const json::Value* spans = document.Find("spans")) {
    for (const auto& [path, span] : spans->object()) {
      if (const json::Value* total = span.Find("total_seconds")) {
        measurements["span/" + path] = total->number();
      }
    }
  }
  if (const json::Value* histograms = document.Find("histograms")) {
    for (const auto& [name, histogram] : histograms->object()) {
      const json::Value* count = histogram.Find("count");
      const json::Value* sum = histogram.Find("sum");
      if (count != nullptr && sum != nullptr && count->number() > 0) {
        measurements["hist/" + name + "/mean_seconds"] =
            sum->number() / count->number();
      }
    }
  }
  return measurements;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kUnchanged:
      return "unchanged";
    case Verdict::kWithinNoise:
      return "within-noise";
    case Verdict::kImprovement:
      return "improvement";
    case Verdict::kRegression:
      return "REGRESSION";
  }
  return "unchanged";
}

CompareReport Compare(const Snapshot& baseline, const Snapshot& candidate,
                      const CompareOptions& options) {
  CompareReport report;
  for (const auto& [key, base] : baseline.measurements) {
    const auto it = candidate.measurements.find(key);
    if (it == candidate.measurements.end()) {
      report.only_in_baseline.push_back(key);
      continue;
    }
    const Measurement& cand = it->second;
    KeyComparison row;
    row.key = key;
    row.baseline_mean = base.mean;
    row.candidate_mean = cand.mean;
    const double delta = cand.mean - base.mean;
    row.delta_percent = base.mean != 0.0 ? delta / base.mean * 100.0 : 0.0;
    const bool beyond_threshold =
        base.mean != 0.0 &&
        std::abs(delta) > options.threshold * std::abs(base.mean);
    const double noise =
        options.noise_sigma * (base.stddev + cand.stddev);
    if (!beyond_threshold) {
      row.verdict = Verdict::kUnchanged;
    } else if (std::abs(delta) <= noise) {
      row.verdict = Verdict::kWithinNoise;
    } else {
      row.verdict = delta > 0 ? Verdict::kRegression : Verdict::kImprovement;
    }
    report.rows.push_back(std::move(row));
  }
  for (const auto& [key, cand] : candidate.measurements) {
    if (baseline.measurements.count(key) == 0) {
      report.only_in_candidate.push_back(key);
    }
  }
  return report;
}

std::string ReportTable(const CompareReport& report) {
  TablePrinter table({"measurement", "baseline", "candidate", "delta",
                      "verdict"});
  size_t regressions = 0;
  for (const KeyComparison& row : report.rows) {
    char baseline[48], candidate[48], delta[48];
    std::snprintf(baseline, sizeof(baseline), "%.6g s", row.baseline_mean);
    std::snprintf(candidate, sizeof(candidate), "%.6g s", row.candidate_mean);
    std::snprintf(delta, sizeof(delta), "%+.1f%%", row.delta_percent);
    table.AddRow({row.key, baseline, candidate, delta,
                  VerdictName(row.verdict)});
    if (row.verdict == Verdict::kRegression) ++regressions;
  }
  std::string out = table.ToString();
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "%zu measurement(s) compared, %zu regression(s), "
                "%zu only-in-baseline, %zu only-in-candidate\n",
                report.rows.size(), regressions,
                report.only_in_baseline.size(),
                report.only_in_candidate.size());
  out += summary;
  return out;
}

}  // namespace benchstat
}  // namespace obs
}  // namespace pasa
