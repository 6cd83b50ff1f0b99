#ifndef PASA_BENCHMARK_SPEED_GAUGE_H_
#define PASA_BENCHMARK_SPEED_GAUGE_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <thread>

namespace pasa_bench {

/// A fixed calibration loop on the server's CPU at the lowest scheduling
/// priority (SCHED_IDLE), so it gets exactly the time the server pinned to
/// that CPU leaves idle. It serves two purposes.
///
/// Speed. On a shared host another tenant's work on the same physical core
/// slows this CPU down, changing from one second to the next, and the
/// server's costs move with it. The loop's work per CPU-second tracks that:
/// an interval multiplied by Factor() over it becomes nominal time, the time
/// it would have taken on an uncontended core.
///
/// Stolen time. The CPU is never idle while the loop runs, so whatever part
/// of an interval neither the loop nor the server spent on the CPU went to
/// someone else: the hypervisor (steal) or an interrupt.
class SpeedGauge {
 public:
  explicit SpeedGauge(int cpu);
  ~SpeedGauge();
  SpeedGauge(const SpeedGauge&) = delete;
  SpeedGauge& operator=(const SpeedGauge&) = delete;

  struct Reading {
    uint64_t work = 0;   ///< calibration iterations so far
    int64_t cpu_ns = 0;  ///< the loop's own CPU time so far
  };
  Reading Read() const;

  /// The CPU's speed between two readings as a share of an uncontended
  /// core's: below 1 when contended. NaN when the loop ran for less than a
  /// millisecond in between, too little to tell.
  static double Factor(const Reading& from, const Reading& to);

  /// Sleeps for `seconds` while the server idles and returns the Factor
  /// over that gap: the speed next to a phase that keeps the server busy.
  double IdleFactor(double seconds) const;

 private:
  void Run(int cpu);

  std::atomic<uint64_t> work_{0};
  std::atomic<uint64_t> sink_{0};
  std::atomic<bool> stop_{false};
  clockid_t clock_{};

  std::thread thread_;  ///< last: it uses the members above
};

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_SPEED_GAUGE_H_
