#include "sim/invariants.h"

#include <sstream>

#include "attack/auditor.h"
#include "pasa/incremental.h"

namespace pasa {
namespace sim {
namespace {

std::optional<Violation> CheckKAnonymity(const SimModel& model) {
  const CspServer& csp = model.csp();
  const int k = model.options().k;
  const CloakingTable policy = csp.policy();
  if (!policy.IsMasking(csp.snapshot())) {
    return Violation{"kanon", "current policy is not masking: some user's "
                              "cloak does not contain their location"};
  }
  const AuditReport audit = AuditPolicyAware(policy);
  if (!audit.Anonymous(k)) {
    std::ostringstream detail;
    detail << "policy-aware audit of the current policy finds a cloaking "
              "group of "
           << audit.min_possible_senders << " < k=" << k;
    return Violation{"kanon", detail.str()};
  }
  const StepRecord& step = model.last_step();
  if (step.served) {
    if (step.receipt.group_size < static_cast<uint64_t>(k)) {
      std::ostringstream detail;
      detail << "request from user " << step.sender
             << " was served with an anonymity group of "
             << step.receipt.group_size << " < k=" << k << " after action "
             << step.action.ToString();
      return Violation{"kanon", detail.str()};
    }
    if (!step.receipt.cloak.Contains(step.sender_location)) {
      std::ostringstream detail;
      detail << "served cloak " << step.receipt.cloak.ToString()
             << " does not mask the sender's location";
      return Violation{"kanon", detail.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> CheckCacheConsistency(const SimModel& model) {
  const StepRecord& step = model.last_step();
  if (!step.served || step.answer_degraded) return std::nullopt;
  // A fresh (non-degraded) answer must be indistinguishable from asking the
  // provider right now. POIs are static within a run, so any mismatch means
  // a stale or foreign cache entry was passed off as fresh.
  const std::vector<PointOfInterest> expected =
      model.reference_pois().NearestToCloak(
          step.receipt.cloak, "fuel",
          model.options().answers_per_request);
  if (step.answer_pois != expected) {
    std::ostringstream detail;
    detail << "non-degraded answer for cloak " << step.receipt.cloak.ToString()
           << " (" << step.answer_pois.size()
           << " POIs) differs from the provider's current answer ("
           << expected.size() << " POIs): a stale answer was served as fresh";
    return Violation{"cache", detail.str()};
  }
  return std::nullopt;
}

std::optional<Violation> CheckQuarantineSoundness(const SimModel& model) {
  const StepRecord& step = model.last_step();
  if (!step.advanced) return std::nullopt;
  const LocationDatabase& snapshot = model.csp().snapshot();
  if (snapshot.size() != step.positions_before.size()) {
    return Violation{"quarantine", "snapshot changed size across an advance"};
  }
  if (step.report.moves_applied + step.report.moves_quarantined !=
      step.submitted.size()) {
    std::ostringstream detail;
    detail << "advance reported " << step.report.moves_applied
           << " applied + " << step.report.moves_quarantined
           << " quarantined for a batch of " << step.submitted.size();
    return Violation{"quarantine", detail.str()};
  }
  // Destination of the submitted (pre-corruption) move per row, if any.
  // Batch destinations never equal the origin, so "applied" vs "held back"
  // is observable from the position alone.
  size_t at_destination = 0;
  std::vector<const UserMove*> move_of_row(snapshot.size(), nullptr);
  for (const UserMove& move : step.submitted) {
    if (move.row < move_of_row.size()) move_of_row[move.row] = &move;
  }
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const Point now = snapshot.row(i).location;
    const Point before = step.positions_before[i];
    const UserMove* move = move_of_row[i];
    if (move == nullptr) {
      if (now != before) {
        std::ostringstream detail;
        detail << "row " << i << " moved without a submitted move";
        return Violation{"quarantine", detail.str()};
      }
      continue;
    }
    if (now == move->to) {
      ++at_destination;
    } else if (now != before) {
      std::ostringstream detail;
      detail << "row " << i << " is neither at its pre-advance position nor "
             << "at its submitted destination: a quarantined (possibly "
             << "corrupted) move was partially applied";
      return Violation{"quarantine", detail.str()};
    }
  }
  if (at_destination != step.report.moves_applied) {
    std::ostringstream detail;
    detail << "advance reported " << step.report.moves_applied
           << " moves applied but " << at_destination
           << " rows actually sit at their submitted destination";
    return Violation{"quarantine", detail.str()};
  }
  return std::nullopt;
}

std::optional<Violation> CheckRepairEqualsRebuild(const SimModel& model) {
  const StepRecord& step = model.last_step();
  if (!step.advanced) return std::nullopt;
  const CspServer& csp = model.csp();
  Result<IncrementalAnonymizer> fresh = IncrementalAnonymizer::Build(
      csp.snapshot(), model.extent(), model.options().k, csp.options().dp);
  if (!fresh.ok()) {
    return Violation{"repair", "from-scratch rebuild on the advanced "
                               "snapshot failed: " +
                                   fresh.status().ToString()};
  }
  Result<Cost> fresh_cost = fresh->OptimalCost();
  if (!fresh_cost.ok()) {
    return Violation{"repair", "from-scratch optimal cost unavailable: " +
                                   fresh_cost.status().ToString()};
  }
  if (*fresh_cost != csp.policy_cost()) {
    std::ostringstream detail;
    detail << "served policy cost " << csp.policy_cost()
           << " differs from a from-scratch rebuild's optimal cost "
           << *fresh_cost << " after "
           << (step.report.rebuilt ? "a rebuild" : "an incremental repair");
    return Violation{"repair", detail.str()};
  }
  return std::nullopt;
}

}  // namespace

Result<uint32_t> ParseInvariantMask(const std::string& csv) {
  if (csv.empty() || csv == "all") return kAllInvariants;
  uint32_t mask = 0;
  std::istringstream stream(csv);
  std::string name;
  while (std::getline(stream, name, ',')) {
    if (name == "kanon") {
      mask |= kInvariantKAnonymity;
    } else if (name == "cache") {
      mask |= kInvariantCacheConsistency;
    } else if (name == "quarantine") {
      mask |= kInvariantQuarantineSoundness;
    } else if (name == "repair") {
      mask |= kInvariantRepairEqualsRebuild;
    } else {
      return Status::InvalidArgument(
          "unknown invariant \"" + name +
          "\" (known: kanon, cache, quarantine, repair)");
    }
  }
  if (mask == 0) return Status::InvalidArgument("no invariants selected");
  return mask;
}

std::optional<Violation> CheckInvariants(const SimModel& model,
                                         uint32_t mask) {
  if (mask & kInvariantKAnonymity) {
    if (auto v = CheckKAnonymity(model)) return v;
  }
  if (mask & kInvariantCacheConsistency) {
    if (auto v = CheckCacheConsistency(model)) return v;
  }
  if (mask & kInvariantQuarantineSoundness) {
    if (auto v = CheckQuarantineSoundness(model)) return v;
  }
  if (mask & kInvariantRepairEqualsRebuild) {
    if (auto v = CheckRepairEqualsRebuild(model)) return v;
  }
  return std::nullopt;
}

}  // namespace sim
}  // namespace pasa
