#ifndef PASA_FAULT_INJECTOR_H_
#define PASA_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "fault/plan.h"

namespace pasa {
namespace fault {

/// Outcome of consulting one injection point.
struct FaultDecision {
  bool fire = false;
  /// Simulated latency payload of the fired point (lbs/latency), in
  /// microseconds. Zero for non-latency points.
  double latency_micros = 0.0;
};

/// Process-wide deterministic fault injector.
///
/// Serving-path code consults named injection points via ShouldInject /
/// Decide. When no plan is armed — the production configuration — every
/// consultation is one relaxed atomic load plus a predictable branch, the
/// same kill-switch discipline as `obs::Enabled()` (verified by
/// bench_overhead). When a plan is armed, each configured point draws
/// from its own SplitMix64 stream seeded from (plan seed, point name), so a
/// given seed replays the identical fault schedule on every run and
/// platform, independent of which other points are being evaluated.
///
/// Thread-safety: Arm/Disarm must not race with in-flight evaluations of
/// armed points (arm before spawning workers, disarm after joining them);
/// armed-path evaluations themselves are serialized per point and safe to
/// call from any thread. The disarmed fast path is wait-free.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The process-wide injector every built-in injection point consults.
  static FaultInjector& Global();

  /// Installs `plan`, seeding every configured point from `seed`. Replaces
  /// any previously armed plan and zeroes all evaluation/fire counts.
  void Arm(const FaultPlan& plan, uint64_t seed);

  /// Convenience overload: arms with the plan's own default seed.
  void Arm(const FaultPlan& plan) { Arm(plan, plan.default_seed); }

  /// Removes the plan; every point goes quiet and the fast path returns to
  /// the disarmed no-op.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Consults `point`: true when the fault fires this evaluation. The
  /// disarmed fast path is one relaxed load.
  bool ShouldInject(std::string_view point) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return Evaluate(point).fire;
  }

  /// Like ShouldInject but also returns the fired point's payload.
  FaultDecision Decide(std::string_view point) {
    if (!armed_.load(std::memory_order_relaxed)) return {};
    return Evaluate(point);
  }

  /// Total fires of `point` since the last Arm (0 when unconfigured).
  uint64_t fires(std::string_view point) const;
  /// Total evaluations of `point` since the last Arm.
  uint64_t evaluations(std::string_view point) const;

 private:
  struct PointState {
    FaultPointConfig config;
    Rng rng{0};
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };

  FaultDecision Evaluate(std::string_view point);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::map<std::string, PointState, std::less<>> points_;
};

}  // namespace fault
}  // namespace pasa

#endif  // PASA_FAULT_INJECTOR_H_
