#ifndef PASA_OBS_PROFILE_H_
#define PASA_OBS_PROFILE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace pasa {
namespace obs {

/// Tuning for the span-sampling profiler.
struct ProfilerOptions {
  /// Sampling frequency of the background sampler. hz <= 0 arms the
  /// profiler WITHOUT spawning the sampler thread — samples are then taken
  /// only by explicit SampleOnce() calls, which is how the determinism
  /// tests drive a fixed schedule.
  double hz = 97.0;
  /// Fixed capacity of the sample ring; the oldest samples are overwritten
  /// once it is full. 65536 samples at 97 Hz covers ~11 minutes.
  size_t capacity = 65536;
};

/// Always-on sampling profiler over the existing ScopedSpan
/// instrumentation: a background thread periodically records the innermost
/// open span path of every live thread (which, thanks to nested-span path
/// concatenation, IS the thread's full instrumented call path) into a
/// fixed-capacity ring, and aggregates the ring into a weighted call tree
/// exported as collapsed-stack folded text (flamegraph.pl / speedscope
/// loadable) and a self-time summary table.
///
/// Costs: while DISARMED, the hook inside ScopedSpan is one relaxed atomic
/// load (gated by bench_overhead like the other obs kill switches). While
/// armed, each span push/pop additionally takes a per-thread mutex to
/// publish the new path, and the sampler takes one mutex sweep per sample
/// period.
///
/// Span paths only exist while the obs layer is enabled (a disabled
/// ScopedSpan is inert), so a disabled obs layer also means an empty
/// profile.
class Profiler {
 public:
  /// The process-wide profiler the ScopedSpan hook publishes to.
  static Profiler& Global();

  /// One relaxed load; the ScopedSpan hook gates on this.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Arms the profiler and (for hz > 0) spawns the sampler thread.
  /// Retained samples from a previous arm survive (use Reset to drop
  /// them). Fails when already armed or capacity is 0.
  Status Start(const ProfilerOptions& options = {});

  /// Disarms and joins the sampler thread. Idempotent. Samples stay
  /// readable after Stop.
  void Stop();

  /// Takes one sample of every registered thread at time `now_micros`
  /// (caller's clock domain: the sampler thread passes NowMicros(), the
  /// determinism tests pass fixed values). Returns how many thread samples
  /// were recorded (threads with no open span contribute none).
  size_t SampleOnce(uint64_t now_micros);

  /// Collapsed-stack folded text over the samples recorded at or after
  /// `min_micros` (0 = every retained sample): one "frame;frame;frame N"
  /// line per distinct stack, sorted, newline-terminated. Span path
  /// components ('/'-separated) become folded frames.
  std::string CollapsedSince(uint64_t min_micros) const;

  /// CollapsedSince over the trailing `seconds` of the sampler's own clock
  /// (seconds <= 0: everything retained).
  std::string Collapsed(double seconds = 0.0) const;

  /// Human summary: per frame, self samples (sampled as the innermost
  /// frame), total samples (anywhere on the stack) and self%, sorted by
  /// self samples descending.
  std::string SelfTimeTableSince(uint64_t min_micros) const;
  std::string SelfTimeTable(double seconds = 0.0) const;

  /// Samples recorded since process start (monotonic; overwritten samples
  /// still count).
  uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }
  /// Samples currently retained in the ring.
  size_t retained() const;

  /// Approximate heap bytes held by the sample ring and thread slots
  /// (memory accounting, obs/mem.h).
  uint64_t ApproxBytes() const;

  /// Drops every retained sample (registrations survive).
  void Reset();

  /// Steady-clock microseconds — the clock domain of the background
  /// sampler's timestamps.
  static uint64_t NowMicros();

 private:
  friend class ProfilerThreadHook;
  friend void ProfilerPublishPath(const std::string& path);

  struct Slot {
    std::mutex mu;
    std::string path;  ///< innermost open span path; "" when none
  };
  struct Sample {
    uint64_t micros = 0;
    std::string path;
  };

  Profiler() = default;

  Slot* RegisterThread();
  void UnregisterThread(Slot* slot);
  void SamplerLoop();
  /// Copies retained samples oldest-first; caller holds mu_.
  void SnapshotLocked(std::vector<Sample>* out) const;

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> samples_taken_{0};

  mutable std::mutex mu_;  ///< slots_ + ring_
  std::vector<std::shared_ptr<Slot>> slots_;
  std::vector<Sample> ring_;
  size_t ring_capacity_ = 0;
  size_t ring_next_ = 0;
  bool ring_wrapped_ = false;

  double hz_ = 0.0;
  std::thread sampler_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

/// Called by ScopedSpan (see trace.cc) after every push/pop while the
/// profiler is armed, with the thread's new innermost span path ("" once
/// the stack empties). Lazily registers the calling thread.
void ProfilerPublishPath(const std::string& path);

/// One relaxed load; what the ScopedSpan hook checks before publishing.
inline bool ProfilerArmed() { return Profiler::Global().armed(); }

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_PROFILE_H_
