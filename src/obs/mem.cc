#include "obs/mem.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/table.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/tail_trace.h"
#include "obs/trace_sink.h"

namespace pasa {
namespace obs {

MemoryAccountant& MemoryAccountant::Global() {
  static MemoryAccountant* instance = new MemoryAccountant();
  return *instance;
}

MemCounter& MemoryAccountant::GetCounter(const std::string& subsystem) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<MemCounter>& slot = counters_[subsystem];
  if (slot == nullptr) slot = std::make_unique<MemCounter>();
  return *slot;
}

std::map<std::string, uint64_t> MemoryAccountant::Snapshot() const {
  std::map<std::string, uint64_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out[name] = counter->bytes();
  }
  return out;
}

uint64_t MemoryAccountant::TotalBytes() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    total += counter->bytes();
  }
  return total;
}

void MemoryAccountant::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
}

void MemoryAccountant::PublishGauges(MetricsRegistry& registry) const {
  uint64_t total = 0;
  for (const auto& [name, bytes] : Snapshot()) {
    total += bytes;
    registry.GetGauge(LabeledName("mem/bytes", {{"subsystem", name}}))
        .Set(static_cast<double>(bytes));
  }
  registry.GetGauge("mem/total_bytes").Set(static_cast<double>(total));
}

std::string MemoryAccountant::ExportJson(size_t users) const {
  const std::map<std::string, uint64_t> snapshot = Snapshot();
  uint64_t total = 0;
  for (const auto& [name, bytes] : snapshot) total += bytes;

  std::string out = "{\n";
  char line[160];
  std::snprintf(line, sizeof(line), "\"total_bytes\": %" PRIu64 ",\n", total);
  out += line;
  if (users > 0) {
    std::snprintf(line, sizeof(line),
                  "\"users\": %zu,\n\"bytes_per_user\": %.2f,\n", users,
                  static_cast<double>(total) / static_cast<double>(users));
    out += line;
  }
  out += "\"subsystems\": {";
  bool first = true;
  for (const auto& [name, bytes] : snapshot) {
    out += first ? "\n" : ",\n";
    first = false;
    // Subsystem names are ASCII path-style identifiers; no escaping needed
    // beyond trusting our own call sites.
    std::snprintf(line, sizeof(line), " \"%s\": %" PRIu64, name.c_str(),
                  bytes);
    out += line;
  }
  out += "\n}\n}\n";
  return out;
}

std::string MemoryAccountant::SummaryTable() const {
  const std::map<std::string, uint64_t> snapshot = Snapshot();
  uint64_t total = 0;
  for (const auto& [name, bytes] : snapshot) total += bytes;

  std::vector<std::pair<std::string, uint64_t>> rows(snapshot.begin(),
                                                     snapshot.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });

  TablePrinter table({"subsystem", "bytes", "MiB", "share"});
  for (const auto& [name, bytes] : rows) {
    char mib[32];
    std::snprintf(mib, sizeof(mib), "%.2f",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
    char share[32];
    std::snprintf(share, sizeof(share), "%5.1f%%",
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(bytes) /
                                   static_cast<double>(total));
    table.AddRow({name, TablePrinter::Cell(static_cast<int64_t>(bytes)), mib,
                  share});
  }
  char mib[32];
  std::snprintf(mib, sizeof(mib), "%.2f",
                static_cast<double>(total) / (1024.0 * 1024.0));
  table.AddRow({"total", TablePrinter::Cell(static_cast<int64_t>(total)),
                mib, "100.0%"});
  return table.ToString();
}

void ReportObsMemory(MemoryAccountant& accountant) {
  accountant.GetCounter("obs/provenance_ring")
      .Set(ProvenanceRing::Global().ApproxBytes());
  accountant.GetCounter("obs/trace_sink")
      .Set(TraceEventSink::Global().ApproxBytes());
  accountant.GetCounter("obs/tail_trace")
      .Set(TailTraceRing::Global().ApproxBytes());
}

}  // namespace obs
}  // namespace pasa
