#ifndef PASA_CSP_SERVER_H_
#define PASA_CSP_SERVER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "lbs/provider.h"
#include "model/anonymized_request.h"
#include "model/service_request.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "pasa/incremental.h"

namespace pasa {

/// Tuning for the trusted-CSP server.
struct CspOptions {
  /// Anonymity degree enforced against policy-aware attackers.
  int k = 50;
  DpOptions dp;
  /// Number of POIs per LBS answer.
  size_t answers_per_request = 10;
  /// When more than this fraction of users moves in one snapshot advance,
  /// rebuild from scratch instead of maintaining incrementally (Section
  /// VI-C: beyond ~5% movers incremental degenerates into bulk anyway).
  double rebuild_fraction = 0.05;
  /// Retry/deadline/circuit-breaker tuning for the LBS hop.
  ResilienceOptions resilience;
};

/// Bookkeeping returned by CspServer::AdvanceSnapshot.
struct SnapshotReport {
  size_t moves_applied = 0;     ///< moves accepted and applied
  size_t moves_quarantined = 0; ///< malformed moves rejected, not fatal
  bool rebuilt = false;         ///< full rebuild vs incremental repair
  /// True when an incremental repair failed and the server self-healed by
  /// falling back to a full rebuild (implies `rebuilt`).
  bool repair_fell_back_to_rebuild = false;
  size_t dp_rows_repaired = 0;  ///< 0 when rebuilt
  Cost policy_cost = 0;

  friend bool operator==(const SnapshotReport& a, const SnapshotReport& b) =
      default;
};

/// The privacy-conscious LBS model of Section II-B assembled into one
/// component: the trusted CSP that (a) tracks the location database across
/// snapshots, (b) maintains the optimal policy-aware sender k-anonymous
/// policy (incrementally when cheap, from scratch when not), (c) anonymizes
/// incoming service requests, and (d) forwards them to the untrusted LBS
/// through the deduplicating answer cache of Section VII.
///
/// The serving path is built to survive a flaky provider and dirty inputs:
/// malformed moves are quarantined rather than fatal, a failed incremental
/// repair self-heals into a full rebuild, and LBS outages degrade answers
/// (stale, flagged) instead of dropping requests. The k-anonymity guarantee
/// itself is never relaxed — every served cloak comes from the maintained
/// optimal policy and identities never cross the CSP boundary.
///
///   CspServer csp = *CspServer::Start(db, extent, pois, {.k = 50});
///   auto answer = csp.HandleRequest(sr);      // POIs near the cloak
///   csp.AdvanceSnapshot(moves);               // next 30s snapshot
class CspServer {
 public:
  /// Builds the initial policy. Fails with Infeasible when 0 < |D| < k.
  static Result<CspServer> Start(LocationDatabase initial_snapshot,
                                 const MapExtent& extent, PoiDatabase pois,
                                 const CspOptions& options);

  CspServer(CspServer&&) = default;

  /// Deep copy: an independent server with identical snapshot, policy,
  /// engine, cache and resilience state. The state-space explorer (pasa::sim)
  /// uses this to branch a live server at each decision point instead of
  /// replaying the whole action prefix. Both copies report into the same
  /// process-wide metric counters. Single-threaded use only.
  CspServer(const CspServer& other);
  CspServer& operator=(const CspServer&) = delete;

  const CspOptions& options() const { return options_; }
  const LocationDatabase& snapshot() const { return engine_->snapshot(); }
  Cost policy_cost() const { return engine_->policy().cost; }
  /// The policy tree the current policy was extracted from.
  const BinaryTree& tree() const { return engine_->tree(); }
  /// The current policy as extracted from tree(): its configuration, its
  /// cost and the cloaking tree node of every snapshot row; row r is served
  /// `tree().node(extracted_policy().assignment[r]).region`. Empty after a
  /// failed advance, until the next successful one.
  const ExtractedPolicy& extracted_policy() const { return engine_->policy(); }
  /// The per-row cloaks of the current policy, materialized from the tree
  /// on each call (for audits and exports; serving reads the tree).
  CloakingTable policy() const {
    return engine_->policy().Table(engine_->tree());
  }
  /// The configuration matrix the current policy was extracted from.
  const DpMatrix& matrix() const { return engine_->matrix(); }

  /// What one HandleRequest decided, for callers (the network front end)
  /// that must echo the cloak decision back to the client: the assigned
  /// rid, the cloak actually sent to the LBS, and the size of the
  /// anonymity group backing it.
  struct ServeReceipt {
    RequestId rid = 0;
    uint64_t group_size = 0;
    Rect cloak;
    bool degraded = false;

    friend bool operator==(const ServeReceipt& a, const ServeReceipt& b) =
        default;
  };

  /// Full request path: validate the request against the current snapshot,
  /// cloak the sender, fetch (or reuse) the LBS answer. The sender identity
  /// never crosses the CSP boundary. `LbsAnswer::degraded` marks answers
  /// served stale from the cache while the provider was unreachable.
  Result<LbsAnswer> HandleRequest(const ServiceRequest& sr) {
    return HandleRequest(sr, nullptr);
  }

  /// Like HandleRequest, additionally filling `receipt` (may be null) with
  /// the cloak decision on success.
  Result<LbsAnswer> HandleRequest(const ServiceRequest& sr,
                                  ServeReceipt* receipt);

  /// Anonymize-only path: validate and cloak without the LBS hop (the wire
  /// protocol's AnonymizeRequest). Fills `group_size` (may be null) with
  /// the anonymity-group size backing the cloak.
  Result<AnonymizedRequest> Cloak(const ServiceRequest& sr,
                                  uint64_t* group_size);

  /// Advances to the next location-database snapshot. Malformed moves
  /// (unknown row, stale origin, destination outside the map, duplicate
  /// mover) are quarantined and the remaining moves applied; a failed
  /// incremental repair falls back to a full rebuild. Fails only when even
  /// the rebuild is impossible.
  Result<SnapshotReport> AdvanceSnapshot(const std::vector<UserMove>& moves);

  /// Flushes the LBS answer cache (e.g. daily) and returns the billable
  /// request count reported to the provider.
  size_t FlushAnswerCache() { return frontend_->FlushAndBill(); }

  struct Stats {
    size_t requests_served = 0;
    size_t requests_degraded = 0;  ///< subset of served: stale answers
    size_t requests_failed = 0;    ///< provider down, no fallback available
    size_t requests_rejected = 0;
    size_t snapshots_advanced = 0;
    size_t moves_quarantined = 0;
    size_t rebuilds = 0;
    size_t incremental_updates = 0;
    size_t repair_fallbacks = 0;   ///< incremental failures healed by rebuild

    friend bool operator==(const Stats& a, const Stats& b) = default;
  };
  const Stats& stats() const { return stats_; }
  /// How many requests the (untrusted) LBS actually saw — always at most
  /// requests_served thanks to the cache.
  size_t lbs_requests_seen() const {
    return frontend_->provider().requests_seen();
  }
  /// Resilience-layer state of the LBS hop (retries, breaker, deadlines).
  const ResilientLbsClient& lbs_client() const { return frontend_->client(); }
  /// The cache + resilience front half itself (read-only): cache contents
  /// and breaker bookkeeping feed the explorer's canonical state digest.
  const CachingLbsFrontend& frontend() const { return *frontend_; }

  /// Refreshes the accountant's csp/* and lbs/* subsystem counters from the
  /// server's long-lived structures: snapshot rows, policy tree, DP
  /// configuration matrix, extracted policy, user index, answer cache and
  /// POI index. Pull-model — called at scrape time (GET /memory, /metrics)
  /// and by `pasa_cli memstats`, never on the serving hot path.
  void ReportMemory(obs::MemoryAccountant& accountant) const;

 private:
  CspServer(CspOptions options, IncrementalAnonymizer engine,
            PoiDatabase pois);

  /// Validates `sr` against the snapshot and cloaks it under the current
  /// policy, setting `*node` to the cloaking tree node. An invalid request
  /// is counted as rejected and fails with InvalidArgument. Annotates the
  /// armed provenance record with the decision, or the rejection. Shared by
  /// HandleRequest and Cloak.
  Result<AnonymizedRequest> CloakRequest(const ServiceRequest& sr,
                                         int32_t* node);

  CspOptions options_;
  /// Request-outcome counters, resolved once at construction so the serving
  /// hot path never takes the registry mutex.
  obs::Counter& served_counter_;
  obs::Counter& degraded_counter_;
  obs::Counter& failed_counter_;
  obs::Counter& rejected_counter_;
  /// The snapshot, tree, matrix and the policy served from them; an
  /// advance that fails leaves that policy empty, so no cloak is ever read
  /// from another tree.
  std::unique_ptr<IncrementalAnonymizer> engine_;
  std::unique_ptr<CachingLbsFrontend> frontend_;
  RequestId next_rid_ = 1;
  Stats stats_;
};

}  // namespace pasa

#endif  // PASA_CSP_SERVER_H_
