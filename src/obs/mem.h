#ifndef PASA_OBS_MEM_H_
#define PASA_OBS_MEM_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pasa {
namespace obs {

class MetricsRegistry;

/// One subsystem's live byte count. All writes are relaxed atomics, so the
/// counter is exact under concurrency but carries no ordering guarantees.
/// Two disciplines coexist, one per subsystem (never mixed on one counter):
///
///  - allocator-style: AccountingAllocator / ScopedAllocTracker call Add
///    with signed deltas as memory is acquired and released;
///  - snapshot-style: an owner's ReportMemory(MemoryAccountant&) calls Set
///    with the structure's ApproxBytes() when telemetry is refreshed.
///
/// Deltas are unconditional (never gated on the accountant being enabled)
/// so charge/release pairs always balance; reads clamp at zero anyway.
class MemCounter {
 public:
  void Add(int64_t delta) {
    bytes_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(uint64_t bytes) {
    bytes_.store(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  }
  uint64_t bytes() const {
    const int64_t v = bytes_.load(std::memory_order_relaxed);
    return v < 0 ? 0 : static_cast<uint64_t>(v);
  }
  void Reset() { bytes_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> bytes_{0};
};

/// Lock-light per-subsystem memory accounting, the capacity sibling of
/// MetricsRegistry: get-or-create a MemCounter per subsystem name
/// ("csp/snapshot", "net/conn_buffers", ...) under a mutex taken only at
/// registration and snapshot time, never on the byte-charging path.
/// References returned by GetCounter stay valid for the accountant's
/// lifetime, so call sites cache them like metric counters.
///
/// Disabled by default, like every other obs layer: the serving-path hook
/// is `if (obs::MemoryAccounting()) { ... }` — one relaxed load — and
/// bench_overhead gates the disarmed cost at 5%. Armed by
/// NetServer::Start, `pasa_cli memstats`, and the capacity benches.
class MemoryAccountant {
 public:
  MemoryAccountant() = default;
  MemoryAccountant(const MemoryAccountant&) = delete;
  MemoryAccountant& operator=(const MemoryAccountant&) = delete;

  /// The process-wide accountant every subsystem reports into.
  static MemoryAccountant& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Get-or-create; the reference stays valid forever.
  MemCounter& GetCounter(const std::string& subsystem);

  /// Current bytes per subsystem (every registered subsystem, including
  /// zero-byte ones, in sorted name order).
  std::map<std::string, uint64_t> Snapshot() const;
  uint64_t TotalBytes() const;

  /// Zeroes every counter; registrations and references survive (tests).
  void Reset();

  /// Writes one pasa_mem_bytes{subsystem="..."} gauge per subsystem plus
  /// the pasa_mem_total_bytes roll-up into `registry`, so the standard
  /// Prometheus/JSON exporters pick the accounting up with no extra
  /// plumbing. Gauge writes are gated on obs::Enabled() like all metrics.
  void PublishGauges(MetricsRegistry& registry) const;

  /// The GET /memory document:
  ///
  ///   { "total_bytes": N,
  ///     "users": U, "bytes_per_user": B,      // when users > 0
  ///     "subsystems": { "csp/snapshot": N1, ... } }
  std::string ExportJson(size_t users = 0) const;

  /// Human-readable table sorted by bytes descending (pasa_cli memstats).
  std::string SummaryTable() const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::unique_ptr<MemCounter>> counters_;
};

/// The disarmed hook: one relaxed atomic load.
inline bool MemoryAccounting() {
  return MemoryAccountant::Global().enabled();
}

/// RAII charge against a MemCounter for a buffer whose size changes over
/// its lifetime (a connection's output buffer, a decoder's backlog).
/// Update re-charges the delta against what is currently charged, so the
/// counter stays balanced even when the accountant is toggled mid-flight;
/// the destructor releases whatever is still charged. Move-only.
class ScopedAllocTracker {
 public:
  ScopedAllocTracker() = default;
  explicit ScopedAllocTracker(MemCounter* counter, uint64_t bytes = 0)
      : counter_(counter) {
    Update(bytes);
  }
  ~ScopedAllocTracker() { Release(); }

  ScopedAllocTracker(ScopedAllocTracker&& other) noexcept
      : counter_(other.counter_), charged_(other.charged_) {
    other.counter_ = nullptr;
    other.charged_ = 0;
  }
  ScopedAllocTracker& operator=(ScopedAllocTracker&& other) noexcept {
    if (this != &other) {
      Release();
      counter_ = other.counter_;
      charged_ = other.charged_;
      other.counter_ = nullptr;
      other.charged_ = 0;
    }
    return *this;
  }
  ScopedAllocTracker(const ScopedAllocTracker&) = delete;
  ScopedAllocTracker& operator=(const ScopedAllocTracker&) = delete;

  /// Charges `bytes` in place of whatever was charged before.
  void Update(uint64_t bytes) {
    if (counter_ == nullptr || bytes == charged_) return;
    counter_->Add(static_cast<int64_t>(bytes) -
                  static_cast<int64_t>(charged_));
    charged_ = bytes;
  }
  /// Returns the charge to the counter; the tracker stays usable.
  void Release() { Update(0); }

  uint64_t charged() const { return charged_; }

 private:
  MemCounter* counter_ = nullptr;
  uint64_t charged_ = 0;
};

/// Minimal std-compatible allocator charging every allocation to a
/// MemCounter, so a container's live heap usage tracks itself:
///
///   auto& c = obs::MemoryAccountant::Global().GetCounter("net/pending");
///   std::deque<Pending, obs::AccountingAllocator<Pending>> q{
///       obs::AccountingAllocator<Pending>(&c)};
///
/// Charges are unconditional (see MemCounter), so allocate/deallocate
/// always balance regardless of when the accountant was enabled. A
/// default-constructed allocator charges nothing.
template <typename T>
class AccountingAllocator {
 public:
  using value_type = T;

  AccountingAllocator() noexcept = default;
  explicit AccountingAllocator(MemCounter* counter) noexcept
      : counter_(counter) {}
  template <typename U>
  AccountingAllocator(const AccountingAllocator<U>& other) noexcept
      : counter_(other.counter()) {}

  T* allocate(std::size_t n) {
    if (counter_ != nullptr) {
      counter_->Add(static_cast<int64_t>(n * sizeof(T)));
    }
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
    if (counter_ != nullptr) {
      counter_->Add(-static_cast<int64_t>(n * sizeof(T)));
    }
  }

  MemCounter* counter() const { return counter_; }

  template <typename U>
  bool operator==(const AccountingAllocator<U>& other) const {
    return counter_ == other.counter();
  }

 private:
  MemCounter* counter_ = nullptr;
};

/// ApproxBytes building blocks for the hand-rolled reporters: heap bytes
/// held by common containers (capacity-based — what the allocator actually
/// reserved, not just what is in use).
template <typename T>
uint64_t VectorApproxBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}

/// Heap bytes of a std::string: zero while the small-string buffer holds
/// it, capacity + NUL once it spilled to the heap.
inline uint64_t StringApproxBytes(const std::string& s) {
  constexpr size_t kSsoCapacity = 15;  // libstdc++/libc++ inline buffer
  return s.capacity() <= kSsoCapacity ? 0 : s.capacity() + 1;
}

/// Reports the obs stack's own long-lived rings — provenance, trace-event
/// sink, tail traces, profiler — into `accountant` under obs/* subsystem
/// names. Every structure exposes ApproxBytes(); this is their shared
/// ReportMemory.
void ReportObsMemory(MemoryAccountant& accountant);

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_MEM_H_
