#ifndef PASA_SIM_INVARIANTS_H_
#define PASA_SIM_INVARIANTS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "sim/model.h"

namespace pasa {
namespace sim {

/// The invariant catalog, as a bitmask so `pasa_cli explore --invariants`
/// can toggle individual checks.
enum Invariant : uint32_t {
  /// Every state's policy is masking and policy-aware k-anonymous (the
  /// attack-layer auditor), and every successfully served request was backed
  /// by an anonymity group of >= k senders whose cloak masks the sender.
  kInvariantKAnonymity = 1u << 0,
  /// No stale answer is ever served as fresh: a non-degraded answer must be
  /// exactly what the provider would answer for that cloak right now.
  kInvariantCacheConsistency = 1u << 1,
  /// Quarantined moves are never partially applied: after an advance every
  /// user sits either at their pre-advance position or at the destination
  /// the submitted batch gave them, and the applied/quarantined counts match
  /// the observable position changes.
  kInvariantQuarantineSoundness = 1u << 2,
  /// Incremental repair is isomorphic to a full rebuild: after every
  /// advance, a from-scratch build on the current snapshot yields the same
  /// optimal policy cost the server is serving from.
  kInvariantRepairEqualsRebuild = 1u << 3,

  kAllInvariants = kInvariantKAnonymity | kInvariantCacheConsistency |
                   kInvariantQuarantineSoundness | kInvariantRepairEqualsRebuild,
};

/// One broken invariant: which check failed and a human-readable diagnosis.
struct Violation {
  std::string invariant;  ///< "kanon" | "cache" | "quarantine" | "repair"
  std::string detail;

  friend bool operator==(const Violation& a, const Violation& b) = default;
};

/// Parses a comma-separated list of the catalog's short names
/// ("kanon,cache,quarantine,repair"), the spelling --invariants accepts.
Result<uint32_t> ParseInvariantMask(const std::string& csv);

/// Checks every enabled invariant against the model's current state and the
/// last step's observations. Returns the first violated invariant (in the
/// catalog order above), or nullopt when the state is clean.
std::optional<Violation> CheckInvariants(const SimModel& model,
                                         uint32_t mask = kAllInvariants);

}  // namespace sim
}  // namespace pasa

#endif  // PASA_SIM_INVARIANTS_H_
