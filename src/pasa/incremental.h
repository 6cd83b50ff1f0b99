#ifndef PASA_PASA_INCREMENTAL_H_
#define PASA_PASA_INCREMENTAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/binary_tree.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/extraction.h"

namespace pasa {

/// One user relocation between consecutive location-database snapshots.
struct UserMove {
  uint32_t row = 0;  ///< snapshot row index of the moving user
  Point from;
  Point to;

  friend bool operator==(const UserMove& a, const UserMove& b) = default;
};

/// Puts each moved row of `db` at its `to`, in order.
Status ApplyMovesToDatabase(const std::vector<UserMove>& moves,
                            LocationDatabase* db);

/// Builds the binary tree of `db` over `extent` (split threshold k, squares
/// cut by `orientation`) inside a `tree_build` span, then its DP matrix.
/// The one tree-and-matrix build path: IncrementalAnonymizer's and
/// Anonymizer's.
Result<std::pair<BinaryTree, DpMatrix>> BuildTreeAndMatrix(
    const LocationDatabase& db, const MapExtent& extent, int k,
    const DpOptions& dp_options,
    SplitOrientation orientation = SplitOrientation::kVerticalOnly);

/// Incremental maintenance of the optimum configuration matrix (Section IV,
/// "Incremental Maintenance of M"; evaluated in Section VI-C / Fig. 5(b)).
///
/// Owns the snapshot, the binary tree, the DP matrix and the policy read
/// off them. ApplyMoves relocates users, re-splits/collapses tree nodes
/// where occupancy crosses the lazy threshold, and re-runs the bottom-up DP
/// step starting from the leaves whose d(m) changed — the paper's "added
/// twist" — and going up only while rows keep changing. Every live row is
/// identical to a from-scratch ComputeDpMatrix on the same tree, and the
/// policy after RefreshPolicy to a from-scratch extraction.
class IncrementalAnonymizer {
 public:
  /// Builds the initial tree and matrix for the first snapshot, and keeps
  /// it. Extracts nothing: policy() is empty until RefreshPolicy.
  static Result<IncrementalAnonymizer> Build(LocationDatabase db,
                                             const MapExtent& extent, int k,
                                             const DpOptions& dp_options);

  /// The current snapshot: the first one with every applied move.
  const LocationDatabase& snapshot() const { return db_; }
  const BinaryTree& tree() const { return tree_; }
  const DpMatrix& matrix() const { return matrix_; }
  /// The policy the last successful RefreshPolicy read off tree() and
  /// matrix(); empty before the first one, after Rebuild and after a failed
  /// one. Between ApplyMoves and RefreshPolicy it still describes the tree
  /// as it was before the repair: refresh before reading cloaks from it.
  const ExtractedPolicy& policy() const { return policy_; }

  /// Applies a batch of moves and repairs the matrix. Returns the number of
  /// DP rows recomputed (the measure of incremental work). A move with an
  /// unknown row, a stale `from` or a `to` off the map is InvalidArgument,
  /// after which only Rebuild is valid: ApplyMoves and RefreshPolicy fail
  /// with Internal until it succeeds.
  ///
  /// Touched nodes are visited deepest first. A row is recomputed only if
  /// it is a leaf, or new, or a child of it is new or changed; a row
  /// changed unless its costs, its children's passes and its count d(m) all
  /// equal theirs before the batch. Rows are pure functions of their
  /// children's rows and counts, their own count, region and depth, so the
  /// cutoff is exact.
  Result<size_t> ApplyMoves(const std::vector<UserMove>& moves);

  /// Puts every moved row at its `to` (safe after a failed ApplyMoves of the
  /// same batch), then rebuilds the tree and matrix from the snapshot. The
  /// policy is dropped, so none is read off a tree it does not describe.
  Status Rebuild(const std::vector<UserMove>& moves);

  /// Minimum cost of a complete configuration on the current snapshot.
  Result<Cost> OptimalCost() const { return matrix_.OptimalCost(tree_); }

  /// Materializes one optimal policy for the current snapshot: a full
  /// extraction into a copy, leaving policy() as it is.
  Result<ExtractedPolicy> ExtractPolicy() const {
    return ExtractOptimalPolicy(tree_, matrix_, k_);
  }

  /// Brings policy() up to date with the tree and matrix; the result equals
  /// ExtractPolicy(). When the policy was current just before the last
  /// successful ApplyMoves, pass 1 re-walks only what that repair changed
  /// (UpdateOptimalPolicy); after Build, Rebuild, a failed refresh or a
  /// second repair without a refresh between, the extraction is full. A
  /// current policy is left as it is. After a failed ApplyMoves or Rebuild
  /// the tree and matrix disagree, so this fails with Internal until a
  /// Rebuild succeeds. On any failure policy() is left empty.
  Status RefreshPolicy();

 private:
  IncrementalAnonymizer(int k, DpOptions dp_options, LocationDatabase db,
                        std::pair<BinaryTree, DpMatrix> built)
      : k_(k),
        dp_options_(dp_options),
        db_(std::move(db)),
        tree_(std::move(built.first)),
        matrix_(std::move(built.second)) {}

  /// How policy_ relates to tree_ and matrix_.
  enum class PolicyState : uint8_t {
    kStale,      ///< needs a full extraction
    kCurrent,    ///< read off them as they are
    kOneRepair,  ///< current just before the last ApplyMoves; see changed_
    kTorn,       ///< a failed ApplyMoves or Rebuild left them apart
  };

  int k_;
  DpOptions dp_options_;
  LocationDatabase db_;
  BinaryTree tree_;
  DpMatrix matrix_;
  ExtractedPolicy policy_;
  PolicyState policy_state_ = PolicyState::kStale;
  /// What the last successful ApplyMoves changed, for RefreshPolicy: new
  /// nodes, nodes whose row or count changed, and abandoned ones.
  std::vector<int32_t> changed_;
};

}  // namespace pasa

#endif  // PASA_PASA_INCREMENTAL_H_
