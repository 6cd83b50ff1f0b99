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

/// Incremental maintenance of the optimum configuration matrix (Section IV,
/// "Incremental Maintenance of M"; evaluated in Section VI-C / Fig. 5(b)).
///
/// Owns the snapshot, the binary tree and the DP matrix. ApplyMoves
/// relocates users, re-splits/collapses tree nodes where occupancy crosses
/// the lazy threshold, and re-runs the bottom-up DP step starting from the
/// leaves whose d(m) changed — the paper's "added twist" — and going up
/// only while rows keep changing. Every live row is identical to a
/// from-scratch ComputeDpMatrix on the same tree, and UpdatePolicy to a
/// from-scratch extraction.
class IncrementalAnonymizer {
 public:
  /// Builds the initial tree and matrix for the first snapshot, and keeps it.
  static Result<IncrementalAnonymizer> Build(LocationDatabase db,
                                             const MapExtent& extent, int k,
                                             const DpOptions& dp_options);

  /// The current snapshot: the first one with every applied move.
  const LocationDatabase& snapshot() const { return db_; }
  const BinaryTree& tree() const { return tree_; }
  const DpMatrix& matrix() const { return matrix_; }

  /// Applies a batch of moves and repairs the matrix. Returns the number of
  /// DP rows recomputed (the measure of incremental work). A move with an
  /// unknown row, a stale `from` or a `to` off the map is InvalidArgument,
  /// after which only Rebuild is valid.
  ///
  /// Touched nodes are visited deepest first. A row is recomputed only if
  /// it is a leaf, or new, or a child of it is new or changed; a row
  /// changed unless its costs, its children's passes and its count d(m) all
  /// equal theirs before the batch. Rows are pure functions of their
  /// children's rows and counts, their own count, region and depth, so the
  /// cutoff is exact.
  Result<size_t> ApplyMoves(const std::vector<UserMove>& moves);

  /// Puts every moved row at its `to` (safe after a failed ApplyMoves of the
  /// same batch), then rebuilds the tree and matrix from the snapshot.
  Status Rebuild(const std::vector<UserMove>& moves);

  /// Minimum cost of a complete configuration on the current snapshot.
  Result<Cost> OptimalCost() const { return matrix_.OptimalCost(tree_); }

  /// Materializes one optimal policy for the current snapshot.
  Result<ExtractedPolicy> ExtractPolicy() const {
    return ExtractOptimalPolicy(tree_, matrix_, k_);
  }

  /// Brings `policy` up to date; the result equals ExtractPolicy(). Right
  /// after a successful ApplyMoves, a non-empty `policy` must be the one
  /// extracted from this engine just before it, and pass 1 revisits only
  /// what that repair changed (UpdateOptimalPolicy). Otherwise — after
  /// Build or Rebuild, a second UpdatePolicy, or with an empty `policy` —
  /// the extraction is full. Consumes the repair's change list. On failure
  /// `policy` is partly updated and must be discarded.
  Status UpdatePolicy(ExtractedPolicy* policy);

 private:
  IncrementalAnonymizer(int k, DpOptions dp_options, LocationDatabase db,
                        std::pair<BinaryTree, DpMatrix> built)
      : k_(k),
        dp_options_(dp_options),
        db_(std::move(db)),
        tree_(std::move(built.first)),
        matrix_(std::move(built.second)) {}

  int k_;
  DpOptions dp_options_;
  LocationDatabase db_;
  BinaryTree tree_;
  DpMatrix matrix_;
  /// What the last successful ApplyMoves changed, for UpdatePolicy: new
  /// nodes, nodes whose row or count changed, and abandoned ones.
  std::vector<int32_t> changed_;
  bool repaired_ = false;  ///< changed_ describes the current tree
};

}  // namespace pasa

#endif  // PASA_PASA_INCREMENTAL_H_
