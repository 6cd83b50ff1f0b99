#ifndef PASA_OBS_SLO_H_
#define PASA_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/window.h"

namespace pasa {
namespace obs {

/// Sentinel burn rate for a violated zero-tolerance objective (target 1.0
/// leaves no error budget, so any bad event means "infinite" burn). Kept
/// finite so JSON exports stay valid numbers.
inline constexpr double kInfiniteBurn = 1e9;

/// One declarative service level objective over the serving path.
///
/// Burn rate is the SRE convention: bad_fraction / (1 - target), i.e. how
/// many times faster than budgeted the error budget is being spent. A
/// multi-window alert fires only when BOTH the fast window (catches
/// sudden outages quickly) and the slow window (suppresses blips) burn at
/// `burn_alert_threshold` or faster, and resolves when either recovers.
struct SloObjective {
  enum class Kind : uint8_t {
    kAvailability = 0,    ///< good = request answered (fresh or degraded)
    kLatency = 1,         ///< good = latency <= latency_threshold_seconds
    kZeroViolations = 2,  ///< good = no violation; any bad event alerts
  };

  std::string name;
  Kind kind = Kind::kAvailability;
  /// Fraction of events that must be good (e.g. 0.999). A kZeroViolations
  /// objective treats any target as 1.0.
  double target = 0.999;
  /// kLatency only: the "good" cutoff for one request.
  double latency_threshold_seconds = 0.005;
  uint64_t fast_window_micros = 5'000'000;
  uint64_t slow_window_micros = 60'000'000;
  double burn_alert_threshold = 14.0;
};

/// Short stable name ("availability", "latency", "zero_violations").
const char* SloKindName(SloObjective::Kind kind);

/// Inverse of SloKindName; InvalidArgument on anything else.
Result<SloObjective::Kind> ParseSloKind(std::string_view name);

/// Parses a list of objectives from a JSON config document:
///
///   {"objectives": [
///     {"name": "csp/serve_latency", "kind": "latency", "target": 0.99,
///      "latency_threshold_seconds": 0.005,
///      "fast_window_micros": 5000000, "slow_window_micros": 60000000,
///      "burn_alert_threshold": 14.0}
///   ]}
///
/// Only "name" and "kind" are required; other members default as in
/// SloObjective. Unknown kinds, targets outside (0, 1], non-positive
/// windows/thresholds, duplicate names and malformed JSON are all
/// InvalidArgument.
Result<std::vector<SloObjective>> SloObjectivesFromJson(
    std::string_view text);

/// Reads and parses `path`. NotFound when the file cannot be read.
Result<std::vector<SloObjective>> SloObjectivesFromJsonFile(
    const std::string& path);

/// Well-known objective names for the CSP serving path.
inline constexpr char kSloAvailability[] = "csp/availability";
inline constexpr char kSloServeLatency[] = "csp/serve_latency";
inline constexpr char kSloAnonymity[] = "csp/anonymity";

/// Well-known objective name for the socket serving path (decode + queue +
/// serve + encode, the latency a remote client actually experiences).
inline constexpr char kSloNetServeLatency[] = "net/serve_latency";

/// The three objectives CspServer registers by default: 99.9% availability,
/// p99-style latency (99% of requests under 5ms wall), and zero anonymity
/// violations (every accepted request cloaked with group size >= k).
std::vector<SloObjective> DefaultServingObjectives();

/// Evaluated state of one objective at one point in time.
struct SloState {
  std::string name;
  SloObjective::Kind kind = SloObjective::Kind::kAvailability;
  double target = 0.999;
  bool alerting = false;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  uint64_t fast_good = 0;
  uint64_t fast_total = 0;
  uint64_t slow_good = 0;
  uint64_t slow_total = 0;
  uint64_t alerts_fired = 0;
  uint64_t alerts_resolved = 0;
};

/// Tracks every configured objective over steady-clock time (NowMicros).
/// Disabled by default; Record/RecordLatency are no-ops (one relaxed load)
/// until Enable(), so the disarmed serving path stays near-free (gated by
/// bench_overhead). Alert transitions are logged ("slo" component), emitted
/// as TraceInstants ("slo/<name>/fired|resolved") and counted in the
/// MetricsRegistry ("slo/alerts_fired|resolved").
class SloTracker {
 public:
  SloTracker() = default;
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// The process-wide tracker (armed by `pasa_cli serve` / `--audit-out`).
  static SloTracker& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Replaces all objectives and discards window/alert state.
  void Configure(std::vector<SloObjective> objectives);

  /// Adds `objective` unless one with the same name exists (so CspServer
  /// can install defaults without clobbering a caller's Configure).
  void EnsureObjective(const SloObjective& objective);

  /// Records one good/bad event for `name` at time `now_micros`
  /// and processes any alert transition. Unknown names and the disabled
  /// state are no-ops.
  void Record(std::string_view name, bool good, uint64_t now_micros);

  /// Records one latency sample for a kLatency objective: good iff
  /// `seconds` <= its latency_threshold_seconds.
  void RecordLatency(std::string_view name, double seconds,
                     uint64_t now_micros);

  /// Evaluates every objective at `now_micros`, processing transitions
  /// (e.g. a resolve caused purely by the window sliding), sorted by name.
  std::vector<SloState> Evaluate(uint64_t now_micros);

  /// Discards window contents and alert state; objectives survive.
  void Reset();

 private:
  struct Entry {
    explicit Entry(const SloObjective& o)
        : objective(o),
          fast(o.fast_window_micros),
          slow(o.slow_window_micros) {}
    SloObjective objective;
    SlidingWindowRate fast;
    SlidingWindowRate slow;
    bool alerting = false;
    uint64_t fired = 0;
    uint64_t resolved = 0;
  };

  /// Evaluates `entry` at `now_micros`, flips its alert state and fills
  /// `*state` when non-null; returns the transition (+1 fired, -1
  /// resolved, 0 none). Caller holds mu_; log/trace/counter emission for
  /// any transition happens after the lock is released.
  int EvaluateEntryLocked(Entry* entry, uint64_t now_micros,
                          SloState* state);

  /// Records one event into `entry`'s windows and evaluates it (no
  /// SloState is built); returns the transition like EvaluateEntryLocked.
  int RecordEntryLocked(Entry* entry, bool good, uint64_t now_micros);

  void EmitTransition(std::string_view slo, int transition);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  /// Transparent comparator: the per-request lookups take the SLO name as
  /// a string_view and build no std::string.
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_;
};

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_SLO_H_
