#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "common/table.h"
#include "obs/provenance.h"
#include "obs/tail_trace.h"
#include "obs/trace_context.h"
#include "obs/trace_sink.h"

namespace pasa {
namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  std::string s = buf;
  // JSON has no inf/nan literals; clamp to null-free safe strings.
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PromName(const std::string& path) {
  std::string out = "pasa_";
  for (const char c : path) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// Escapes a # HELP docstring: only backslash and newline are special there.
std::string PromHelpEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Splits a registry key (see obs::LabeledName) at its first '{' into the
// family path and the verbatim label block ("" when unlabeled).
void SplitSeriesKey(const std::string& key, std::string* path,
                    std::string* labels) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *path = key;
    labels->clear();
  } else {
    *path = key.substr(0, brace);
    *labels = key.substr(brace);
  }
}

// Inserts an extra `k="v"` pair into a (possibly empty) label block.
std::string MergeLabels(const std::string& block, const std::string& extra) {
  if (block.empty()) return "{" + extra + "}";
  return block.substr(0, block.size() - 1) + "," + extra + "}";
}

// Emits the one # HELP + # TYPE header a metric family gets.
void FamilyHeader(std::string* out, const std::string& prom, const char* type,
                  const std::string& help) {
  AppendF(out, "# HELP %s %s\n", prom.c_str(), PromHelpEscape(help).c_str());
  AppendF(out, "# TYPE %s %s\n", prom.c_str(), type);
}

// Regroups snapshot map entries by family path so every series of a family
// (labeled or not) is emitted contiguously under a single header, as the
// exposition format requires — the snapshot map interleaves families
// lexically ("foo2" sorts between "foo" and "foo{shard=...}").
template <typename Value>
std::map<std::string, std::vector<std::pair<std::string, const Value*>>>
GroupFamilies(const std::map<std::string, Value>& series) {
  std::map<std::string, std::vector<std::pair<std::string, const Value*>>>
      families;
  for (const auto& [key, value] : series) {
    std::string path;
    std::string labels;
    SplitSeriesKey(key, &path, &labels);
    families[path].emplace_back(std::move(labels), &value);
  }
  return families;
}

// Approximate quantile from cumulative bucket counts: the upper bound of the
// first bucket whose cumulative count reaches q * total.
double ApproxQuantile(const MetricsSnapshot::HistogramData& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
    cumulative += h.bucket_counts[i];
    if (static_cast<double>(cumulative) >= target) {
      return i < h.upper_bounds.size() ? h.upper_bounds[i]
                                       : h.upper_bounds.back();
    }
  }
  return h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
}

}  // namespace

std::string ExportJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    AppendF(&out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",",
            JsonEscape(name).c_str(), value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    AppendF(&out, "%s\n    \"%s\": %s", first ? "" : ",",
            JsonEscape(name).c_str(), JsonNumber(value).c_str());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    AppendF(&out, "%s\n    \"%s\": {\n      \"count\": %" PRIu64
                  ",\n      \"sum\": %s,\n      \"buckets\": [",
            first ? "" : ",", JsonEscape(name).c_str(), h.count,
            JsonNumber(h.sum).c_str());
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out += ", ";
      if (i < h.upper_bounds.size()) {
        AppendF(&out, "{\"le\": %s, \"count\": %" PRIu64 "}",
                JsonNumber(h.upper_bounds[i]).c_str(), h.bucket_counts[i]);
      } else {
        AppendF(&out, "{\"le\": \"+Inf\", \"count\": %" PRIu64 "}",
                h.bucket_counts[i]);
      }
    }
    out += "]\n    }";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  const bool have_windows = !snapshot.windows.histograms.empty() ||
                            !snapshot.windows.rates.empty();
  const bool have_slos = !snapshot.slos.empty();

  out += "  \"spans\": {";
  first = true;
  for (const auto& [name, s] : snapshot.spans) {
    AppendF(&out, "%s\n    \"%s\": {\"count\": %" PRIu64
                  ", \"total_seconds\": %s, \"min_seconds\": %s, "
                  "\"max_seconds\": %s}",
            first ? "" : ",", JsonEscape(name).c_str(), s.count,
            JsonNumber(s.total_seconds).c_str(),
            JsonNumber(s.min_seconds).c_str(),
            JsonNumber(s.max_seconds).c_str());
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += (have_windows || have_slos) ? ",\n" : "\n";

  if (have_windows) {
    out += "  \"windows\": {\n    \"histograms\": {";
    first = true;
    for (const auto& [name, w] : snapshot.windows.histograms) {
      AppendF(&out,
              "%s\n      \"%s\": {\"window_micros\": %" PRIu64
              ", \"count\": %" PRIu64
              ", \"sum\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}",
              first ? "" : ",", JsonEscape(name).c_str(), w.window_micros,
              w.count, JsonNumber(w.sum).c_str(), JsonNumber(w.p50).c_str(),
              JsonNumber(w.p95).c_str(), JsonNumber(w.p99).c_str());
      first = false;
    }
    out += first ? "},\n    \"rates\": {" : "\n    },\n    \"rates\": {";
    first = true;
    for (const auto& [name, r] : snapshot.windows.rates) {
      AppendF(&out,
              "%s\n      \"%s\": {\"window_micros\": %" PRIu64
              ", \"good\": %" PRIu64 ", \"total\": %" PRIu64 ", \"rate\": %s}",
              first ? "" : ",", JsonEscape(name).c_str(), r.window_micros,
              r.good, r.total, JsonNumber(r.rate).c_str());
      first = false;
    }
    out += first ? "}\n  }" : "\n    }\n  }";
    out += have_slos ? ",\n" : "\n";
  }

  if (have_slos) {
    out += "  \"slos\": [";
    first = true;
    for (const auto& slo : snapshot.slos) {
      AppendF(&out,
              "%s\n    {\"name\": \"%s\", \"kind\": \"%s\", \"target\": %s, "
              "\"alerting\": %s, \"fast_burn\": %s, \"slow_burn\": %s, "
              "\"fast_good\": %" PRIu64 ", \"fast_total\": %" PRIu64
              ", \"slow_good\": %" PRIu64 ", \"slow_total\": %" PRIu64
              ", \"alerts_fired\": %" PRIu64 ", \"alerts_resolved\": %" PRIu64
              "}",
              first ? "" : ",", JsonEscape(slo.name).c_str(),
              SloKindName(slo.kind), JsonNumber(slo.target).c_str(),
              slo.alerting ? "true" : "false",
              JsonNumber(slo.fast_burn).c_str(),
              JsonNumber(slo.slow_burn).c_str(), slo.fast_good,
              slo.fast_total, slo.slow_good, slo.slow_total, slo.alerts_fired,
              slo.alerts_resolved);
      first = false;
    }
    out += first ? "]\n" : "\n  ]\n";
  }
  out += "}\n";
  return out;
}

std::string ExportPrometheus(const MetricsSnapshot& snapshot,
                             bool include_exemplars) {
  std::string out;
  for (const auto& [path, series] : GroupFamilies(snapshot.counters)) {
    const std::string prom = PromName(path);
    FamilyHeader(&out, prom, "counter", "pasa counter " + path);
    for (const auto& [labels, value] : series) {
      AppendF(&out, "%s%s %" PRIu64 "\n", prom.c_str(), labels.c_str(),
              *value);
    }
  }
  for (const auto& [path, series] : GroupFamilies(snapshot.gauges)) {
    const std::string prom = PromName(path);
    FamilyHeader(&out, prom, "gauge", "pasa gauge " + path);
    for (const auto& [labels, value] : series) {
      AppendF(&out, "%s%s %s\n", prom.c_str(), labels.c_str(),
              JsonNumber(*value).c_str());
    }
  }
  for (const auto& [path, series] : GroupFamilies(snapshot.histograms)) {
    const std::string prom = PromName(path);
    FamilyHeader(&out, prom, "histogram", "pasa histogram " + path);
    for (const auto& [labels, h] : series) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < h->bucket_counts.size(); ++i) {
        cumulative += h->bucket_counts[i];
        const std::string le =
            i < h->upper_bounds.size()
                ? "le=\"" + JsonNumber(h->upper_bounds[i]) + "\""
                : std::string("le=\"+Inf\"");
        AppendF(&out, "%s_bucket%s %" PRIu64, prom.c_str(),
                MergeLabels(labels, le).c_str(), cumulative);
        if (include_exemplars && i < h->exemplar_trace_ids.size() &&
            h->exemplar_trace_ids[i] != 0) {
          AppendF(&out, " # {trace_id=\"%s\"} %s",
                  TraceIdHex(h->exemplar_trace_ids[i]).c_str(),
                  JsonNumber(h->exemplar_values[i]).c_str());
        }
        out += '\n';
      }
      AppendF(&out, "%s_sum%s %s\n", prom.c_str(), labels.c_str(),
              JsonNumber(h->sum).c_str());
      AppendF(&out, "%s_count%s %" PRIu64 "\n", prom.c_str(), labels.c_str(),
              h->count);
    }
  }
  if (!snapshot.spans.empty()) {
    FamilyHeader(&out, "pasa_span_seconds_total", "counter",
                 "total seconds spent in each instrumented span path");
    for (const auto& [name, s] : snapshot.spans) {
      AppendF(&out, "pasa_span_seconds_total{span=\"%s\"} %s\n",
              PromLabelValueEscape(name).c_str(),
              JsonNumber(s.total_seconds).c_str());
    }
    FamilyHeader(&out, "pasa_span_count", "counter",
                 "completed executions of each instrumented span path");
    for (const auto& [name, s] : snapshot.spans) {
      AppendF(&out, "pasa_span_count{span=\"%s\"} %" PRIu64 "\n",
              PromLabelValueEscape(name).c_str(), s.count);
    }
  }
  {
    const auto window_families = GroupFamilies(snapshot.windows.histograms);
    // Each windowed histogram fans out into four synthetic gauge families
    // (_p50/_p95/_p99/_window_count); keep each family's series contiguous.
    for (const char* suffix : {"_p50", "_p95", "_p99", "_window_count"}) {
      for (const auto& [path, series] : window_families) {
        const std::string prom = PromName(path) + suffix;
        FamilyHeader(&out, prom, "gauge",
                     "pasa sliding-window statistic " + path + suffix);
        for (const auto& [labels, w] : series) {
          if (std::string(suffix) == "_window_count") {
            AppendF(&out, "%s%s %" PRIu64 "\n", prom.c_str(), labels.c_str(),
                    w->count);
          } else {
            const double q = std::string(suffix) == "_p50"   ? w->p50
                             : std::string(suffix) == "_p95" ? w->p95
                                                             : w->p99;
            AppendF(&out, "%s%s %s\n", prom.c_str(), labels.c_str(),
                    JsonNumber(q).c_str());
          }
        }
      }
    }
  }
  for (const auto& [path, series] : GroupFamilies(snapshot.windows.rates)) {
    const std::string prom = PromName(path);
    FamilyHeader(&out, prom, "gauge", "pasa sliding-window rate " + path);
    for (const auto& [labels, r] : series) {
      AppendF(&out, "%s%s %s\n", prom.c_str(), labels.c_str(),
              JsonNumber(r->rate).c_str());
    }
    FamilyHeader(&out, prom + "_window_total", "gauge",
                 "pasa sliding-window sample count " + path);
    for (const auto& [labels, r] : series) {
      AppendF(&out, "%s_window_total%s %" PRIu64 "\n", prom.c_str(),
              labels.c_str(), r->total);
    }
  }
  if (!snapshot.slos.empty()) {
    FamilyHeader(&out, "pasa_slo_alerting", "gauge",
                 "1 while the SLO's multi-window burn-rate alert is firing");
    for (const auto& slo : snapshot.slos) {
      AppendF(&out, "pasa_slo_alerting{slo=\"%s\"} %d\n",
              PromLabelValueEscape(slo.name).c_str(), slo.alerting ? 1 : 0);
    }
    FamilyHeader(&out, "pasa_slo_fast_burn", "gauge",
                 "error budget burn rate over the fast window");
    for (const auto& slo : snapshot.slos) {
      AppendF(&out, "pasa_slo_fast_burn{slo=\"%s\"} %s\n",
              PromLabelValueEscape(slo.name).c_str(),
              JsonNumber(slo.fast_burn).c_str());
    }
    FamilyHeader(&out, "pasa_slo_slow_burn", "gauge",
                 "error budget burn rate over the slow window");
    for (const auto& slo : snapshot.slos) {
      AppendF(&out, "pasa_slo_slow_burn{slo=\"%s\"} %s\n",
              PromLabelValueEscape(slo.name).c_str(),
              JsonNumber(slo.slow_burn).c_str());
    }
    // The same burn rates and window contents with explicit window labels,
    // the series shape external multi-window alerting rules consume. The
    // unlabeled pasa_slo_fast_burn/pasa_slo_slow_burn series above stay for
    // dashboard compatibility.
    FamilyHeader(&out, "pasa_slo_burn_rate", "gauge",
                 "error budget burn rate per alerting window");
    for (const auto& slo : snapshot.slos) {
      const std::string name = PromLabelValueEscape(slo.name);
      AppendF(&out, "pasa_slo_burn_rate{slo=\"%s\",window=\"fast\"} %s\n",
              name.c_str(), JsonNumber(slo.fast_burn).c_str());
      AppendF(&out, "pasa_slo_burn_rate{slo=\"%s\",window=\"slow\"} %s\n",
              name.c_str(), JsonNumber(slo.slow_burn).c_str());
    }
    FamilyHeader(&out, "pasa_slo_window_good", "gauge",
                 "good events per alerting window");
    for (const auto& slo : snapshot.slos) {
      const std::string name = PromLabelValueEscape(slo.name);
      AppendF(&out, "pasa_slo_window_good{slo=\"%s\",window=\"fast\"} %" PRIu64
                    "\n",
              name.c_str(), slo.fast_good);
      AppendF(&out, "pasa_slo_window_good{slo=\"%s\",window=\"slow\"} %" PRIu64
                    "\n",
              name.c_str(), slo.slow_good);
    }
    FamilyHeader(&out, "pasa_slo_window_total", "gauge",
                 "total events per alerting window");
    for (const auto& slo : snapshot.slos) {
      const std::string name = PromLabelValueEscape(slo.name);
      AppendF(&out,
              "pasa_slo_window_total{slo=\"%s\",window=\"fast\"} %" PRIu64
              "\n",
              name.c_str(), slo.fast_total);
      AppendF(&out,
              "pasa_slo_window_total{slo=\"%s\",window=\"slow\"} %" PRIu64
              "\n",
              name.c_str(), slo.slow_total);
    }
  }
  return out;
}

std::string ExportFolded(const MetricsSnapshot& snapshot) {
  std::vector<std::string> lines;
  for (const auto& [path, span] : snapshot.spans) {
    const long long micros = std::llround(span.self_seconds * 1e6);
    if (micros <= 0) continue;
    std::string line = path;
    std::replace(line.begin(), line.end(), '/', ';');
    AppendF(&line, " %lld\n", micros);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

namespace {

bool IsMetricNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || (c >= '0' && c <= '9');
}
bool IsLabelNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsLabelNameChar(char c) {
  return IsLabelNameStart(c) || (c >= '0' && c <= '9');
}

Status LineError(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("prometheus text line " +
                                 std::to_string(line_no) + ": " + what);
}

// Parses a `{k="v",...}` label block starting at the '{' at *pos; advances
// *pos past the closing brace. Returns false (with *error set) on malformed
// label names, quoting or escapes. `name` is only used in error messages.
bool ParseLabelBlock(const std::string& line, size_t line_no, size_t* pos,
                     const std::string& name, Status* error) {
  size_t i = *pos;
  ++i;  // opening brace
  while (i < line.size() && line[i] != '}') {
    if (!IsLabelNameStart(line[i])) {
      *error = LineError(line_no, "bad label name in " + name);
      return false;
    }
    while (i < line.size() && IsLabelNameChar(line[i])) ++i;
    if (i >= line.size() || line[i] != '=') {
      *error = LineError(line_no, "label without '=' in " + name);
      return false;
    }
    ++i;
    if (i >= line.size() || line[i] != '"') {
      *error = LineError(line_no, "label value not quoted in " + name);
      return false;
    }
    ++i;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        if (i + 1 >= line.size() ||
            (line[i + 1] != '\\' && line[i + 1] != '"' &&
             line[i + 1] != 'n')) {
          *error = LineError(line_no, "bad escape in label value of " + name);
          return false;
        }
        ++i;
      }
      ++i;
    }
    if (i >= line.size()) {
      *error = LineError(line_no, "unterminated label value in " + name);
      return false;
    }
    ++i;  // closing quote
    if (i < line.size() && line[i] == ',') ++i;
  }
  if (i >= line.size()) {
    *error = LineError(line_no, "unterminated label block in " + name);
    return false;
  }
  ++i;  // closing brace
  *pos = i;
  return true;
}

// Parses `name{labels}` starting at *pos; advances *pos past it. Returns
// false (with *error set) on malformed names, labels or escapes.
bool ParseSampleName(const std::string& line, size_t line_no, size_t* pos,
                     std::string* name, Status* error) {
  size_t i = *pos;
  if (i >= line.size() || !IsMetricNameStart(line[i])) {
    *error = LineError(line_no, "sample does not start with a metric name");
    return false;
  }
  const size_t name_begin = i;
  while (i < line.size() && IsMetricNameChar(line[i])) ++i;
  *name = line.substr(name_begin, i - name_begin);
  if (i < line.size() && line[i] == '{') {
    if (!ParseLabelBlock(line, line_no, &i, *name, error)) return false;
  }
  *pos = i;
  return true;
}

}  // namespace

Status CheckPrometheusText(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("prometheus text is empty");
  if (text.back() != '\n') {
    return Status::InvalidArgument(
        "prometheus text does not end with a newline");
  }
  std::map<std::string, std::string> declared_type;
  // Grouping check: once another family's samples start, a family is closed
  // and must not reappear.
  std::string current_family;
  std::set<std::string> closed;
  // Maps a sample name to its family: histogram series land under the base
  // name their # TYPE declared.
  const auto family_of = [&declared_type](const std::string& name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::string(suffix).size();
      if (name.size() > len &&
          name.compare(name.size() - len, len, suffix) == 0) {
        const std::string base = name.substr(0, name.size() - len);
        const auto it = declared_type.find(base);
        if (it != declared_type.end() && it->second == "histogram") {
          return base;
        }
      }
    }
    return name;
  };

  size_t line_no = 0;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE name type" / "# HELP name docstring"; other comments pass.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t space = rest.find(' ');
        const std::string name = rest.substr(0, space);
        if (name.empty() || !IsMetricNameStart(name[0])) {
          return LineError(line_no, "TYPE without a metric name");
        }
        const std::string type =
            space == std::string::npos ? "" : rest.substr(space + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return LineError(line_no, "unknown TYPE '" + type + "'");
        }
        if (declared_type.count(name) != 0) {
          return LineError(line_no, "duplicate TYPE for " + name);
        }
        if (closed.count(name) != 0 || current_family == name) {
          return LineError(line_no, "TYPE for " + name + " after its samples");
        }
        declared_type[name] = type;
      } else if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t space = rest.find(' ');
        const std::string name = rest.substr(0, space);
        if (name.empty() || !IsMetricNameStart(name[0])) {
          return LineError(line_no, "HELP without a metric name");
        }
      }
      continue;
    }
    std::string name;
    size_t pos = 0;
    Status error = Status::Ok();
    if (!ParseSampleName(line, line_no, &pos, &name, &error)) return error;
    if (pos >= line.size() || (line[pos] != ' ' && line[pos] != '\t')) {
      return LineError(line_no, "no value after sample name " + name);
    }
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    // Value, then an optional integer timestamp.
    const size_t value_end = line.find_first_of(" \t", pos);
    const std::string value = line.substr(
        pos, value_end == std::string::npos ? std::string::npos
                                            : value_end - pos);
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    if (value.empty() || parse_end != value.c_str() + value.size()) {
      return LineError(line_no, "unparseable value '" + value + "'");
    }
    // Remainder after the value: either an (ignored) integer timestamp or
    // an OpenMetrics exemplar suffix `# {label="v",...} value`, which is
    // only legal on histogram _bucket samples.
    size_t rest = value_end == std::string::npos ? line.size() : value_end;
    while (rest < line.size() && (line[rest] == ' ' || line[rest] == '\t')) {
      ++rest;
    }
    if (rest < line.size() && line[rest] == '#') {
      const std::string kBucket = "_bucket";
      if (name.size() <= kBucket.size() ||
          name.compare(name.size() - kBucket.size(), kBucket.size(),
                       kBucket) != 0) {
        return LineError(line_no,
                         "exemplar on non-_bucket sample " + name);
      }
      ++rest;
      while (rest < line.size() && line[rest] == ' ') ++rest;
      if (rest >= line.size() || line[rest] != '{') {
        return LineError(line_no, "exemplar without a label block on " + name);
      }
      Status ex_error = Status::Ok();
      if (!ParseLabelBlock(line, line_no, &rest, name + " exemplar",
                           &ex_error)) {
        return ex_error;
      }
      while (rest < line.size() && (line[rest] == ' ' || line[rest] == '\t')) {
        ++rest;
      }
      const std::string ex_value = line.substr(rest);
      char* ex_end = nullptr;
      std::strtod(ex_value.c_str(), &ex_end);
      if (ex_value.empty() || ex_end != ex_value.c_str() + ex_value.size()) {
        return LineError(line_no, "unparseable exemplar value '" + ex_value +
                                      "' on " + name);
      }
    }
    const std::string family = family_of(name);
    if (family != current_family) {
      if (closed.count(family) != 0) {
        return LineError(line_no,
                         "samples for " + family + " are not contiguous");
      }
      if (!current_family.empty()) closed.insert(current_family);
      current_family = family;
    }
  }
  return Status::Ok();
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      return Status::InvalidArgument("cannot create directory " +
                                     parent.string() + ": " + ec.message());
    }
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open output file " + path);
  }
  file << content;
  file.close();
  if (!file) return Status::Internal("failed writing file " + path);
  return Status::Ok();
}

namespace {

/// Folds the armed global window registry / SLO tracker into `snapshot`,
/// evaluated now.
void Augment(MetricsSnapshot* snapshot) {
  const uint64_t now = NowMicros();
  if (WindowRegistry::Global().enabled()) {
    snapshot->windows = WindowRegistry::Global().Snapshot(now);
  }
  if (SloTracker::Global().enabled()) {
    snapshot->slos = SloTracker::Global().Evaluate(now);
  }
  // Surface timeline-event loss: once the span-sampling ring has been armed
  // (or has ever overflowed), /vars and /metrics report how many events the
  // fixed-capacity TraceEventSink ring could not hold.
  const TraceEventSink& sink = TraceEventSink::Global();
  if (sink.active() || sink.dropped() > 0) {
    snapshot->counters["obs/trace_dropped_events"] = sink.dropped();
  }
  // Same treatment for the other bounded rings: overwrites and drops are
  // silent at the ring, so surface them wherever metrics are exported.
  const ProvenanceRing& provenance = ProvenanceRing::Global();
  if (provenance.enabled() || provenance.overwritten() > 0) {
    snapshot->counters["obs/provenance_overwritten"] =
        provenance.overwritten();
  }
  const TailTraceRing& tail = TailTraceRing::Global();
  if (tail.enabled() || tail.anomalies_dropped() > 0) {
    snapshot->counters["obs/tail_trace_dropped"] = tail.anomalies_dropped();
  }
}

}  // namespace

MetricsSnapshot FullSnapshot() {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  Augment(&snapshot);
  return snapshot;
}

Status WriteJsonFile(const MetricsRegistry& registry,
                     const std::string& path) {
  MetricsSnapshot snapshot = registry.Snapshot();
  if (&registry == &MetricsRegistry::Global()) Augment(&snapshot);
  return WriteTextFile(path, ExportJson(snapshot));
}

std::string SummaryTable(const MetricsSnapshot& snapshot) {
  TablePrinter table({"metric", "kind", "value"});
  for (const auto& [name, s] : snapshot.spans) {
    char value[128];
    std::snprintf(value, sizeof(value), "%.3f s over %" PRIu64 " call(s)",
                  s.total_seconds, s.count);
    table.AddRow({name, "span", value});
  }
  for (const auto& [name, h] : snapshot.histograms) {
    char value[160];
    std::snprintf(value, sizeof(value),
                  "n=%" PRIu64 " mean=%.1f us p50<=%.1f us p99<=%.1f us",
                  h.count,
                  h.count ? h.sum / static_cast<double>(h.count) * 1e6 : 0.0,
                  ApproxQuantile(h, 0.50) * 1e6, ApproxQuantile(h, 0.99) * 1e6);
    table.AddRow({name, "histogram", value});
  }
  for (const auto& [name, value] : snapshot.counters) {
    table.AddRow({name, "counter", std::to_string(value)});
  }
  for (const auto& [name, value] : snapshot.gauges) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    table.AddRow({name, "gauge", buf});
  }
  for (const auto& [name, w] : snapshot.windows.histograms) {
    char value[160];
    std::snprintf(value, sizeof(value),
                  "n=%" PRIu64 " p50=%.1f us p95=%.1f us p99=%.1f us",
                  w.count, w.p50 * 1e6, w.p95 * 1e6, w.p99 * 1e6);
    table.AddRow({name, "window", value});
  }
  for (const auto& [name, r] : snapshot.windows.rates) {
    char value[128];
    std::snprintf(value, sizeof(value), "rate=%.4f (%" PRIu64 "/%" PRIu64 ")",
                  r.rate, r.good, r.total);
    table.AddRow({name, "window", value});
  }
  for (const auto& slo : snapshot.slos) {
    char value[160];
    std::snprintf(value, sizeof(value),
                  "%s fast_burn=%.2f slow_burn=%.2f fired=%" PRIu64,
                  slo.alerting ? "ALERT" : "ok", slo.fast_burn, slo.slow_burn,
                  slo.alerts_fired);
    table.AddRow({slo.name, "slo", value});
  }
  return table.ToString();
}

}  // namespace obs
}  // namespace pasa
