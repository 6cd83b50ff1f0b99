#ifndef PASA_PASA_ANONYMIZER_H_
#define PASA_PASA_ANONYMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "index/binary_tree.h"
#include "model/cloaking.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/extraction.h"

namespace pasa {

/// Knobs for building a policy-aware optimal anonymizer.
struct AnonymizerOptions {
  /// Anonymity degree: an attacker who knows the policy cannot reduce the
  /// set of possible senders of any request below k.
  int k = 50;
  /// DP optimization toggles (both on by default).
  DpOptions dp;
  /// Square-split orientation: the paper's fixed vertical cut, or the
  /// adaptive balance-driven extension (see SplitOrientation).
  SplitOrientation orientation = SplitOrientation::kVerticalOnly;
};

/// The CSP-side anonymization engine (the paper's end-to-end artifact):
/// builds the optimal policy-aware sender k-anonymous quad/semi-quadrant
/// policy for one location-database snapshot, then serves per-request cloak
/// lookups in O(1).
///
///   Result<Anonymizer> a = Anonymizer::Build(db, extent, {.k = 50});
///   Result<AnonymizedRequest> ar = a->Anonymize(sr);
class Anonymizer {
 public:
  /// Builds the binary tree and runs the optimized Bulk_dp
  /// (BuildTreeAndMatrix, the incremental engine's build path), extracts
  /// one optimal policy and drops the matrix. Fails with Infeasible when
  /// 0 < |D| < k.
  static Result<Anonymizer> Build(const LocationDatabase& db,
                                  const MapExtent& extent,
                                  const AnonymizerOptions& options);

  /// As above, deriving the map extent from the snapshot's bounding box.
  static Result<Anonymizer> Build(const LocationDatabase& db,
                                  const AnonymizerOptions& options);

  const AnonymizerOptions& options() const { return options_; }
  const BinaryTree& tree() const { return tree_; }
  /// The per-row cloaks, materialized from the tree on each call.
  CloakingTable policy() const { return policy_.Table(tree_); }
  const Configuration& config() const { return policy_.config; }
  /// Total policy cost (sum of cloak areas over all users).
  Cost cost() const { return policy_.cost; }

  /// Cloak assigned to snapshot row `row`: its cloaking node's region.
  const Rect& CloakForRow(size_t row) const {
    return tree_.node(policy_.assignment[row]).region;
  }

  /// Cloak assigned to `user`; NotFound if absent from the snapshot.
  Result<Rect> CloakForUser(UserId user) const;

  /// Anonymizes one service request: validates it against the snapshot,
  /// looks up the sender's cloak and stamps a fresh request id. This is the
  /// per-request "cloak lookup" path whose latency Section VII discusses.
  Result<AnonymizedRequest> Anonymize(const ServiceRequest& sr);

 private:
  Anonymizer(AnonymizerOptions options, LocationDatabase db, BinaryTree tree,
             ExtractedPolicy policy)
      : options_(options),
        db_(std::move(db)),
        tree_(std::move(tree)),
        policy_(std::move(policy)) {}

  AnonymizerOptions options_;
  /// The anonymized snapshot: request validation and user -> row lookups.
  LocationDatabase db_;
  BinaryTree tree_;
  ExtractedPolicy policy_;
  RequestId next_rid_ = 1;
};

/// Adapter exposing the policy-aware optimum through the common
/// BulkPolicyAlgorithm interface used by the experiment harnesses.
class PolicyAwareOptimumAlgorithm : public BulkPolicyAlgorithm {
 public:
  /// Uses `extent` as the map; pass std::nullopt-like default by using the
  /// other constructor to derive it per snapshot.
  explicit PolicyAwareOptimumAlgorithm(MapExtent extent)
      : has_extent_(true), extent_(extent) {}
  PolicyAwareOptimumAlgorithm() = default;

  std::string name() const override { return "PolicyAware-OPT"; }
  Result<CloakingTable> Cloak(const LocationDatabase& db,
                              int k) const override;

 private:
  bool has_extent_ = false;
  MapExtent extent_;
};

}  // namespace pasa

#endif  // PASA_PASA_ANONYMIZER_H_
