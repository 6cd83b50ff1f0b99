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

/// One subsystem's byte count, pulled from its owner: the owner's
/// ReportMemory(MemoryAccountant&) calls Set with the structure's
/// ApproxBytes() whenever telemetry is read. Relaxed atomics: no ordering
/// guarantees with other counters.
class MemCounter {
 public:
  void Set(uint64_t bytes) { bytes_.store(bytes, std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  void Reset() { bytes_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bytes_{0};
};

/// Per-subsystem memory accounting, the capacity sibling of
/// MetricsRegistry: get-or-create a MemCounter per subsystem name
/// ("csp/snapshot", "net/conn_buffers", ...) under a mutex. Nothing is
/// charged on the serving path: every count is derived from live state at
/// read time (GET /memory, /metrics, /vars; `pasa_cli memstats`; the
/// capacity benches). References returned by GetCounter stay valid for the
/// accountant's lifetime, so call sites cache them like metric counters.
class MemoryAccountant {
 public:
  MemoryAccountant() = default;
  MemoryAccountant(const MemoryAccountant&) = delete;
  MemoryAccountant& operator=(const MemoryAccountant&) = delete;

  /// The process-wide accountant every subsystem reports into.
  static MemoryAccountant& Global();

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
  std::map<std::string, std::unique_ptr<MemCounter>> counters_;
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
/// sink, tail traces — into `accountant` under obs/* subsystem
/// names. Every structure exposes ApproxBytes(); this is their shared
/// ReportMemory.
void ReportObsMemory(MemoryAccountant& accountant);

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_MEM_H_
