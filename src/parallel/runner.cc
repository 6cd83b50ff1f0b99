#include "parallel/runner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/timer.h"
#include "fault/injector.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "pasa/extraction.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace pasa {
namespace {

// Labels the calling worker thread for the OS (top/gdb) and for the trace
// sink, so per-jurisdiction tracks in the trace viewer read
// "pasa-worker-3" instead of a raw thread id.
void NameWorkerThread(size_t index) {
  const std::string name = "pasa-worker-" + std::to_string(index);
  obs::TraceEventSink::Global().SetCurrentThreadName(name);
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name.c_str());  // 15-char limit on Linux
#endif
}

// Local anonymization of one jurisdiction. `rows` are the snapshot rows the
// server owns. Fills per-row cloaks into `master`.
Status AnonymizeJurisdiction(const LocationDatabase& db,
                             const Jurisdiction& jurisdiction,
                             const std::vector<uint32_t>& rows, int k,
                             const DpOptions& dp, JurisdictionResult* result,
                             CloakingTable* master) {
  WallTimer timer;
  LocationDatabase local;
  for (const uint32_t row : rows) {
    local.Add(static_cast<UserId>(row), db.row(row).location);
  }
  TreeOptions tree_options;
  tree_options.split_threshold = k;
  Result<BinaryTree> tree = BinaryTree::BuildRooted(
      local, jurisdiction.region, jurisdiction.kind, tree_options);
  if (!tree.ok()) return tree.status();
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, k, dp);
  if (!matrix.ok()) return matrix.status();
  Result<ExtractedPolicy> policy = ExtractOptimalPolicy(*tree, *matrix, k);
  if (!policy.ok()) return policy.status();

  result->seconds = timer.ElapsedSeconds();
  result->cost = policy->cost;
  for (size_t i = 0; i < rows.size(); ++i) {
    master->Assign(rows[i], tree->node(policy->assignment[i]).region);
  }
  return Status::Ok();
}

// Failure containment around one jurisdiction: consults the
// parallel/jurisdiction_fail injection point before each attempt (a server
// that crashes mid-run) and retries in place. Master rows are only written
// by a successful attempt, so a failure never leaves partial cloaks behind.
Status RunJurisdictionContained(const LocationDatabase& db,
                                const Jurisdiction& jurisdiction, size_t j,
                                const std::vector<uint32_t>& rows,
                                const ParallelRunOptions& options,
                                JurisdictionResult* result,
                                CloakingTable* master,
                                std::atomic<size_t>* failures,
                                std::atomic<size_t>* retries) {
  Status last = Status::Ok();
  const int attempts = 1 + std::max(0, options.max_jurisdiction_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries->fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::Global()
          .GetCounter("parallel/jurisdiction_retries")
          .Increment();
    }
    if (fault::FaultInjector::Global().ShouldInject(
            fault::kParallelJurisdictionFail)) {
      last = Status::Unavailable("injected jurisdiction failure");
    } else {
      last = AnonymizeJurisdiction(db, jurisdiction, rows, options.k,
                                   options.dp, result, master);
      if (last.ok()) return last;
    }
    failures->fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global()
        .GetCounter("parallel/jurisdiction_failures")
        .Increment();
    obs::LogWarn("parallel", "jurisdiction %zu attempt %d failed: %s", j,
                 attempt + 1, last.ToString().c_str());
  }
  return last;
}

}  // namespace

Result<ParallelRunReport> RunPartitioned(const LocationDatabase& db,
                                         const MapExtent& extent,
                                         const ParallelRunOptions& options) {
  if (options.num_jurisdictions < 1) {
    return Status::InvalidArgument("need at least one jurisdiction");
  }
  obs::ScopedSpan run_span("parallel/run", obs::ScopedSpan::kRoot);
  TreeOptions tree_options;
  tree_options.split_threshold = options.k;
  std::unique_ptr<obs::ScopedSpan> partition_span;
  if (obs::Enabled()) {
    partition_span = std::make_unique<obs::ScopedSpan>("partition");
  }
  Result<BinaryTree> tree = BinaryTree::Build(db, extent, tree_options);
  if (!tree.ok()) return tree.status();

  const std::vector<Jurisdiction> jurisdictions =
      GreedyPartition(*tree, options.k, options.num_jurisdictions);
  partition_span.reset();

  ParallelRunReport report;
  report.master_table = CloakingTable(db.size());
  report.jurisdictions.resize(jurisdictions.size());
  report.total_users = db.size();

  std::vector<std::vector<uint32_t>> rows_of(jurisdictions.size());
  for (size_t j = 0; j < jurisdictions.size(); ++j) {
    rows_of[j] = tree->SubtreeRows(jurisdictions[j].node);
  }

  std::atomic<size_t> failures{0};
  std::atomic<size_t> retries{0};
  if (options.use_threads) {
    std::atomic<size_t> next{0};
    std::vector<Status> statuses(jurisdictions.size());
    const size_t workers =
        std::min<size_t>(std::thread::hardware_concurrency() > 0
                             ? std::thread::hardware_concurrency()
                             : 1,
                         jurisdictions.size());
    std::vector<std::thread> pool;
    pool.reserve(workers);
    obs::LogDebug("parallel", "spawning %zu worker thread(s) for %zu "
                  "jurisdiction(s)", workers, jurisdictions.size());
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        NameWorkerThread(w);
        for (;;) {
          const size_t j = next.fetch_add(1);
          if (j >= jurisdictions.size()) return;
          report.jurisdictions[j].jurisdiction = jurisdictions[j];
          if (jurisdictions[j].users == 0) continue;
          obs::ScopedSpan span("parallel/jurisdiction",
                               obs::ScopedSpan::kRoot);
          obs::TraceCounter("parallel/jurisdiction_users",
                            static_cast<double>(jurisdictions[j].users));
          // Each jurisdiction writes disjoint master rows: no locking. A
          // failed jurisdiction never aborts its siblings — it is recorded
          // and retried inline after the join.
          statuses[j] = RunJurisdictionContained(
              db, jurisdictions[j], j, rows_of[j], options,
              &report.jurisdictions[j], &report.master_table, &failures,
              &retries);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    // Last line of defense: re-run jurisdictions whose server kept failing
    // inline on the coordinating thread, so a flaky server pool degrades to
    // sequential execution instead of losing the master policy.
    for (size_t j = 0; j < jurisdictions.size(); ++j) {
      if (statuses[j].ok()) continue;
      ++report.inline_fallbacks;
      obs::MetricsRegistry::Global()
          .GetCounter("parallel/inline_fallbacks")
          .Increment();
      obs::TraceInstant("parallel/inline_fallback");
      obs::LogWarn("parallel",
                   "jurisdiction %zu exhausted its server retries (%s); "
                   "re-running inline",
                   j, statuses[j].ToString().c_str());
      obs::ScopedSpan span("parallel/jurisdiction", obs::ScopedSpan::kRoot);
      Status s = RunJurisdictionContained(
          db, jurisdictions[j], j, rows_of[j], options,
          &report.jurisdictions[j], &report.master_table, &failures,
          &retries);
      if (!s.ok()) return s;
    }
  } else {
    for (size_t j = 0; j < jurisdictions.size(); ++j) {
      report.jurisdictions[j].jurisdiction = jurisdictions[j];
      if (jurisdictions[j].users == 0) continue;
      obs::ScopedSpan span("parallel/jurisdiction", obs::ScopedSpan::kRoot);
      obs::TraceCounter("parallel/jurisdiction_users",
                        static_cast<double>(jurisdictions[j].users));
      Status s = RunJurisdictionContained(
          db, jurisdictions[j], j, rows_of[j], options,
          &report.jurisdictions[j], &report.master_table, &failures,
          &retries);
      if (!s.ok()) return s;
    }
  }
  report.jurisdiction_failures = failures.load(std::memory_order_relaxed);
  report.jurisdiction_retries = retries.load(std::memory_order_relaxed);

  for (const JurisdictionResult& r : report.jurisdictions) {
    report.parallel_seconds = std::max(report.parallel_seconds, r.seconds);
    report.total_cpu_seconds += r.seconds;
    report.total_cost += r.cost;
  }
  if (obs::Enabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    obs::Histogram& per_jurisdiction =
        registry.GetHistogram("parallel/jurisdiction_seconds");
    for (const JurisdictionResult& r : report.jurisdictions) {
      if (r.jurisdiction.users > 0) per_jurisdiction.Observe(r.seconds);
    }
    registry.GetCounter("parallel/runs").Increment();
    registry.GetCounter("parallel/jurisdictions_run")
        .Increment(jurisdictions.size());
    registry.GetCounter("parallel/users_anonymized").Increment(db.size());
    registry.GetGauge("parallel/last_wall_clock_seconds")
        .Set(report.parallel_seconds);
    registry.GetGauge("parallel/last_total_cpu_seconds")
        .Set(report.total_cpu_seconds);
    // Per-jurisdiction series (obs::LabeledName): one labeled gauge family
    // per dimension, the per-shard dashboard shape the sharded reactors
    // will reuse.
    for (size_t j = 0; j < report.jurisdictions.size(); ++j) {
      const JurisdictionResult& r = report.jurisdictions[j];
      const std::map<std::string, std::string> labels = {
          {"jurisdiction", std::to_string(j)}};
      registry
          .GetGauge(obs::LabeledName("parallel/jurisdiction/users", labels))
          .Set(static_cast<double>(r.jurisdiction.users));
      registry
          .GetGauge(obs::LabeledName("parallel/jurisdiction/seconds", labels))
          .Set(r.seconds);
      registry
          .GetGauge(obs::LabeledName("parallel/jurisdiction/cost", labels))
          .Set(static_cast<double>(r.cost));
    }
  }
  obs::LogDebug("parallel",
                "anonymized %zu users across %zu jurisdictions: wall %.3f s, "
                "cpu %.3f s, cost %lld",
               report.total_users, report.jurisdictions.size(),
               report.parallel_seconds, report.total_cpu_seconds,
               static_cast<long long>(report.total_cost));
  return report;
}

}  // namespace pasa
