#include "csp/server.h"

#include <utility>
#include <vector>

#include "common/timer.h"
#include "fault/injector.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"

namespace pasa {

CspServer::CspServer(CspOptions options, IncrementalAnonymizer engine,
                     PoiDatabase pois)
    : options_(options),
      served_counter_(obs::MetricsRegistry::Global().GetCounter(
          "csp/requests_served")),
      degraded_counter_(obs::MetricsRegistry::Global().GetCounter(
          "csp/requests_degraded")),
      failed_counter_(obs::MetricsRegistry::Global().GetCounter(
          "csp/requests_failed")),
      rejected_counter_(obs::MetricsRegistry::Global().GetCounter(
          "csp/requests_rejected")),
      engine_(std::make_unique<IncrementalAnonymizer>(std::move(engine))),
      frontend_(std::make_unique<CachingLbsFrontend>(
          LbsProvider(std::move(pois), options.answers_per_request),
          options.resilience)) {
  for (const obs::SloObjective& objective : obs::DefaultServingObjectives()) {
    obs::SloTracker::Global().EnsureObjective(objective);
  }
}

CspServer::CspServer(const CspServer& other)
    : options_(other.options_),
      served_counter_(other.served_counter_),
      degraded_counter_(other.degraded_counter_),
      failed_counter_(other.failed_counter_),
      rejected_counter_(other.rejected_counter_),
      engine_(std::make_unique<IncrementalAnonymizer>(*other.engine_)),
      frontend_(std::make_unique<CachingLbsFrontend>(*other.frontend_)),
      next_rid_(other.next_rid_),
      stats_(other.stats_) {}

Result<CspServer> CspServer::Start(LocationDatabase initial_snapshot,
                                   const MapExtent& extent, PoiDatabase pois,
                                   const CspOptions& options) {
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  Result<IncrementalAnonymizer> engine = IncrementalAnonymizer::Build(
      std::move(initial_snapshot), extent, options.k, options.dp);
  if (!engine.ok()) return engine.status();
  {
    obs::ScopedSpan extract_span("extract_policy");
    if (Status s = engine->RefreshPolicy(); !s.ok()) return s;
  }
  return CspServer(options, std::move(*engine), std::move(pois));
}

Result<LbsAnswer> CspServer::HandleRequest(const ServiceRequest& sr,
                                           ServeReceipt* receipt) {
  // Under the network front end this scope resolves to the front end's
  // record, and the front end finishes the request; in process, this is
  // the outermost entry point and its scope finishes the request on return.
  obs::ScopedProvenanceRecord prov;
  obs::ProvenanceRecord& record = prov.record();
  obs::ScopedSpan span("csp/handle_request", obs::ScopedSpan::kRoot);
  obs::ProvenanceRecord* p = obs::CurrentProvenance();
  WallTimer timer;
  int32_t node = -1;
  const Result<AnonymizedRequest> ar = CloakRequest(sr, &node);
  record.cloak_seconds = timer.ElapsedSeconds();
  if (!ar.ok()) return ar.status();
  Result<LbsAnswer> answer = frontend_->Serve(*ar);
  record.lbs_seconds = timer.ElapsedSeconds() - record.cloak_seconds;
  if (!answer.ok()) {
    // Provider down and no cached fallback: the request is lost, but the
    // anonymization guarantee was never at stake — only the LBS hop failed.
    ++stats_.requests_failed;
    failed_counter_.Increment();
    if (p != nullptr) {
      p->outcome = obs::RequestOutcome::kFailed;
      p->status = answer.status().code();
    }
    return answer.status();
  }
  ++stats_.requests_served;
  served_counter_.Increment();
  if (answer->degraded) {
    ++stats_.requests_degraded;
    degraded_counter_.Increment();
    if (p != nullptr) p->outcome = obs::RequestOutcome::kDegraded;
  }
  if (receipt != nullptr) {
    receipt->rid = ar->rid;
    receipt->group_size = engine_->policy().GroupSize(engine_->tree(), node);
    receipt->cloak = ar->cloak;
    receipt->degraded = answer->degraded;
  }
  return answer;
}

Result<AnonymizedRequest> CspServer::CloakRequest(const ServiceRequest& sr,
                                                  int32_t* node) {
  obs::ProvenanceRecord* p = obs::CurrentProvenance();
  const ExtractedPolicy& policy = engine_->policy();
  const Result<size_t> row = ValidSenderRow(sr, engine_->snapshot());
  // An empty assignment means a failed advance dropped the policy: no
  // request is valid until the next advance extracts one again.
  if (!row.ok() || *row >= policy.assignment.size()) {
    ++stats_.requests_rejected;
    rejected_counter_.Increment();
    obs::LogDebug("csp", "rejected request from user %lld (stale or unknown)",
                  static_cast<long long>(sr.sender));
    const Status rejected = Status::InvalidArgument(
        "service request is not valid w.r.t. the current snapshot");
    if (p != nullptr) {
      p->sender = sr.sender;
      p->k = options_.k;
      p->outcome = obs::RequestOutcome::kRejected;
      p->status = rejected.code();
    }
    return rejected;
  }
  *node = policy.assignment[*row];
  const RequestId rid = next_rid_++;
  if (p != nullptr) {
    AnnotateCloakDecision(engine_->tree(), policy, options_.k, *node, rid,
                          sr.sender, p);
    // Cloaked; HandleRequest overrides this with how the LBS hop went.
    p->outcome = obs::RequestOutcome::kServed;
  }
  return AnonymizedRequest{rid, engine_->tree().node(*node).region,
                           sr.params};
}

Result<AnonymizedRequest> CspServer::Cloak(const ServiceRequest& sr,
                                           uint64_t* group_size) {
  int32_t node = -1;
  Result<AnonymizedRequest> ar = CloakRequest(sr, &node);
  if (ar.ok() && group_size != nullptr) {
    *group_size = engine_->policy().GroupSize(engine_->tree(), node);
  }
  return ar;
}

Result<SnapshotReport> CspServer::AdvanceSnapshot(
    const std::vector<UserMove>& moves) {
  obs::ScopedSpan span("csp/advance_snapshot", obs::ScopedSpan::kRoot);
  static obs::Counter& quarantined_counter = obs::MetricsRegistry::Global()
      .GetCounter("csp/snapshot/moves_quarantined");
  SnapshotReport report;
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  const LocationDatabase& snapshot = engine_->snapshot();
  const MapExtent& extent = engine_->tree().extent();

  // Validate every move against the current snapshot; malformed ones are
  // quarantined (counted, logged) instead of failing the whole advance. The
  // snapshot/corrupt_move injection point simulates a dirty MPC feed by
  // mangling moves right at this boundary, which must end in quarantine.
  std::vector<UserMove> accepted;
  accepted.reserve(moves.size());
  std::vector<bool> already_moved(snapshot.size(), false);
  size_t corrupted = 0;
  for (const UserMove& original : moves) {
    UserMove move = original;
    if (injector.ShouldInject(fault::kSnapshotCorruptMove)) {
      switch (corrupted++ % 3) {
        case 0:  // unknown user: row beyond the snapshot
          move.row += static_cast<uint32_t>(snapshot.size());
          break;
        case 1:  // destination outside the map extent
          move.to = Point{extent.origin_x + 2 * extent.side(),
                          extent.origin_y};
          break;
        default:  // stale origin
          move.from.x += 1;
          break;
      }
    }
    const char* reason = nullptr;
    if (move.row >= snapshot.size()) {
      reason = "unknown_user";
    } else if (snapshot.row(move.row).location != move.from) {
      reason = "stale_origin";
    } else if (!extent.Contains(move.to)) {
      reason = "out_of_extent";
    } else if (already_moved[move.row]) {
      reason = "duplicate";
    }
    if (reason != nullptr) {
      ++report.moves_quarantined;
      obs::MetricsRegistry::Global()
          .GetCounter(std::string("csp/quarantine/") + reason)
          .Increment();
      obs::TraceInstant("csp/move_quarantined");
      obs::LogDebug("csp", "quarantined move of row %u (%s)", move.row,
                    reason);
      continue;
    }
    already_moved[move.row] = true;
    accepted.push_back(move);
  }
  if (report.moves_quarantined > 0) {
    quarantined_counter.Increment(report.moves_quarantined);
    stats_.moves_quarantined += report.moves_quarantined;
    obs::LogWarn("csp", "quarantined %zu of %zu moves this snapshot",
                 report.moves_quarantined, moves.size());
  }
  report.moves_applied = accepted.size();

  const double fraction =
      snapshot.empty() ? 0.0
                       : static_cast<double>(accepted.size()) /
                             static_cast<double>(snapshot.size());
  bool need_rebuild = fraction > options_.rebuild_fraction;
  if (need_rebuild) {
    // Bulk re-anonymization (Section VI-C: incremental degenerates anyway).
    obs::TraceInstant("csp/rebuild_triggered");
    obs::LogDebug("csp",
                  "snapshot rebuild: %zu moves touch %.1f%% of users "
                  "(> %.1f%% threshold)",
                  accepted.size(), fraction * 100.0,
                  options_.rebuild_fraction * 100.0);
  } else {
    obs::ScopedSpan repair_span("repair");
    Status repair = Status::Ok();
    if (injector.ShouldInject(fault::kSnapshotRepairFail)) {
      repair = Status::Unavailable("injected incremental repair failure");
    } else {
      Result<size_t> repaired = engine_->ApplyMoves(accepted);
      if (repaired.ok()) {
        report.dp_rows_repaired = *repaired;
      } else {
        repair = repaired.status();
      }
    }
    if (repair.ok()) {
      ++stats_.incremental_updates;
      obs::MetricsRegistry::Global()
          .GetCounter("csp/snapshot/incremental_repairs")
          .Increment();
    } else {
      // Self-healing: a failed repair may leave the engine's snapshot, tree
      // and matrix partially updated, so put every accepted move in place
      // and rebuild from scratch instead of failing the advance.
      report.repair_fell_back_to_rebuild = true;
      ++stats_.repair_fallbacks;
      need_rebuild = true;
      obs::MetricsRegistry::Global()
          .GetCounter("csp/snapshot/repair_fallbacks")
          .Increment();
      obs::TraceInstant("csp/repair_fallback");
      obs::LogWarn("csp",
                   "incremental repair failed (%s); falling back to a full "
                   "rebuild",
                   repair.ToString().c_str());
    }
  }
  if (need_rebuild) {
    // A failed Rebuild leaves the engine's policy empty.
    Status s = engine_->Rebuild(accepted);
    if (!s.ok()) {
      obs::LogError("csp", "snapshot rebuild failed: %s",
                    s.ToString().c_str());
      return s;
    }
    report.rebuilt = true;
    ++stats_.rebuilds;
    obs::MetricsRegistry::Global().GetCounter("csp/snapshot/rebuilds")
        .Increment();
  }
  obs::MetricsRegistry::Global().GetCounter("csp/snapshot/moves_applied")
      .Increment(accepted.size());
  obs::TraceCounter("csp/moves_applied",
                    static_cast<double>(accepted.size()));
  Status s = [&] {
    obs::ScopedSpan refresh_span("refresh_policy");
    return engine_->RefreshPolicy();  // empties the policy on failure
  }();
  if (!s.ok()) {
    obs::LogWarn("csp", "policy refresh failed: %s", s.ToString().c_str());
    return s;
  }
  report.policy_cost = engine_->policy().cost;
  ++stats_.snapshots_advanced;
  obs::LogDebug("csp",
                "snapshot advanced: %zu moves (%zu quarantined), %s, %zu dp "
                "rows repaired, policy cost %lld",
                accepted.size(), report.moves_quarantined,
                report.rebuilt
                    ? (report.repair_fell_back_to_rebuild
                           ? "rebuilt (repair fallback)"
                           : "rebuilt")
                    : "repaired",
                report.dp_rows_repaired,
                static_cast<long long>(report.policy_cost));
  return report;
}

void CspServer::ReportMemory(obs::MemoryAccountant& accountant) const {
  const LocationDatabase& snapshot = engine_->snapshot();
  accountant.GetCounter("csp/snapshot").Set(snapshot.ApproxBytes());
  accountant.GetCounter("csp/policy_tree")
      .Set(engine_->tree().ApproxBytes());
  accountant.GetCounter("csp/config_matrix")
      .Set(engine_->matrix().ApproxBytes());
  accountant.GetCounter("csp/policy").Set(engine_->policy().ApproxBytes());
  accountant.GetCounter("csp/user_index").Set(snapshot.IndexApproxBytes());
  accountant.GetCounter("lbs/answer_cache")
      .Set(frontend_->cache().ApproxBytes());
  accountant.GetCounter("lbs/poi_index")
      .Set(frontend_->provider().ApproxBytes());
}

}  // namespace pasa
