#ifndef PASA_OBS_EXPORT_H_
#define PASA_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace pasa {
namespace obs {

/// Serializes a snapshot as structured JSON:
///
///   {
///     "counters":   { "lbs/answer_cache/hits": 12, ... },
///     "gauges":     { ... },
///     "histograms": { "csp/handle_request_seconds":
///                       { "count": N, "sum": S,
///                         "buckets": [ {"le": 1e-06, "count": c}, ...,
///                                      {"le": "+Inf", "count": c} ] }, ... },
///     "spans":      { "bulk_dp/leaf_init":
///                       { "count": N, "total_seconds": T,
///                         "min_seconds": m, "max_seconds": M }, ... }
///   }
///
/// When the snapshot carries windowed telemetry or SLO states (see
/// FullSnapshot), two extra sections follow:
///
///     "windows": { "histograms": { name: {"window_micros": W, "count": N,
///                                         "sum": S, "p50": ..., "p95": ...,
///                                         "p99": ...} },
///                  "rates":      { name: {"window_micros": W, "good": G,
///                                         "total": T, "rate": R} } },
///     "slos":    [ {"name": ..., "kind": "availability", "target": ...,
///                   "alerting": false, "fast_burn": ..., "slow_burn": ...,
///                   "fast_good": ..., "fast_total": ..., "slow_good": ...,
///                   "slow_total": ..., "alerts_fired": ...,
///                   "alerts_resolved": ...} ]
///
/// Keys are emitted in sorted order, so output is deterministic.
std::string ExportJson(const MetricsSnapshot& snapshot);

/// Serializes a snapshot in the Prometheus text exposition format. Metric
/// paths are sanitized ('/' and other non-[a-zA-Z0-9_] become '_') and
/// prefixed with "pasa_"; histograms emit cumulative _bucket/_sum/_count
/// series, spans emit _seconds_total and _count series with the original
/// path as a {span="..."} label. Registry keys produced by LabeledName
/// ("name{k=\"v\"}") become labeled series of one family: every series of a
/// family is emitted contiguously under a single # HELP/# TYPE header, and
/// label values (span paths, SLO names, LabeledName values) are escaped per
/// the exposition format. Output passes CheckPrometheusText.
///
/// With `include_exemplars`, histogram `_bucket` lines whose bucket holds a
/// traced observation (see Histogram::Observe(value, trace_id)) gain an
/// OpenMetrics exemplar suffix:
///
///   pasa_net_serve_latency_seconds_bucket{le="0.005"} 17 # {trace_id="b3e1..."} 0.0042
///
/// Exemplars are max-per-bucket, so the highest non-empty bucket's exemplar
/// references the globally slowest traced request — what `tools/ci.sh`
/// cross-checks against /trace and the merged Perfetto timeline.
std::string ExportPrometheus(const MetricsSnapshot& snapshot,
                             bool include_exemplars = false);

/// Serializes the snapshot's span self times as collapsed-stack folded text
/// (flamegraph.pl / speedscope), the GET /profile body: one
/// `frame;frame;frame <self microseconds>` line per span path whose self
/// time rounds to at least 1 us, the path's '/' separators turned into ';',
/// lines sorted. Self time excludes every span that closed inside the span
/// on the same thread, so the weights add up to the instrumented time
/// without double counting; a kRoot-anchored span folds under its own path
/// only and is subtracted from its caller. Totals are cumulative since
/// start (or the last Reset): a profile over a window is the difference of
/// two scrapes, or rate(pasa_span_seconds_total[N]).
std::string ExportFolded(const MetricsSnapshot& snapshot);

/// Validates `text` against the Prometheus text exposition format: every
/// line must be a #-comment (with well-formed `# TYPE` / `# HELP` shapes), a
/// blank line, or a `name{labels} value [timestamp]` sample with legal
/// metric/label names, only `\\` `\"` `\n` escapes in label values, and a
/// parseable value; each family gets at most one TYPE, declared before its
/// samples, with all its samples contiguous; the text ends with a newline.
/// An OpenMetrics exemplar suffix (`# {label="v",...} value`) is accepted —
/// and fully validated — on histogram `_bucket` samples only.
/// Returns InvalidArgument naming the first offending line otherwise. Used
/// by `pasa_cli scrape --check` and the CI exposition-format gate.
Status CheckPrometheusText(const std::string& text);

/// Snapshot of the global MetricsRegistry augmented with the global
/// window registry and SLO tracker (evaluated at NowMicros()) when those
/// are armed; a plain metrics snapshot otherwise. What the CLI dump and run
/// report consume.
MetricsSnapshot FullSnapshot();

/// Snapshots `registry` (augmented like FullSnapshot when `registry` is
/// the global one) and writes the JSON export to `path`, creating missing
/// parent directories first (so `--metrics-out runs/today/m.json` works
/// without a pre-existing `runs/today/`).
Status WriteJsonFile(const MetricsRegistry& registry, const std::string& path);

/// Writes `content` to `path`, creating missing parent directories.
/// Shared by the metrics, trace and benchstat writers.
Status WriteTextFile(const std::string& path, const std::string& content);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// Formats a finite double as a JSON number; non-finite values (which JSON
/// cannot represent) serialize as 0.
std::string JsonNumber(double v);

/// One-line-per-metric human dump of the most useful metrics (span totals,
/// counters, histogram count/mean/p50-ish summaries) for CLI output.
std::string SummaryTable(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_EXPORT_H_
