#ifndef PASA_INDEX_BINARY_TREE_H_
#define PASA_INDEX_BINARY_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/tree_path.h"
#include "geo/rect.h"
#include "index/morton.h"
#include "index/tree_options.h"
#include "model/location_database.h"

namespace pasa {

/// The binary semi-quadrant tree of Section V: each square quadrant node is
/// the parent of its two vertical semi-quadrants, and each semi-quadrant is
/// the parent of two square quadrants. Cloaks are chosen from the nodes, so
/// the cost granularity between parent and child is 2x instead of the quad
/// tree's 4x.
///
/// The tree partitions the whole map: every node is either a leaf or has two
/// children that exactly cover it, so every point of the extent lies in
/// exactly one leaf. Nodes are lazily materialized (see TreeOptions). It
/// stores row ids only and reads locations from the snapshot it is handed.
///
/// Each node is the set of points whose interleaved key (x bit above y bit
/// at each level, from the root's south-west corner) has one prefix, so a
/// build sorts the keys once and cuts each node's run of them at one bit.
///
/// The structure is mutable to support incremental maintenance across
/// location-database snapshots (Section IV "Incremental Maintenance"):
/// ApplyMove relocates one user, splitting or collapsing nodes as occupancy
/// crosses the threshold. Collapsed descendants are abandoned in the arena
/// (IsLive() == false) and reclaimed only by rebuilding.
class BinaryTree {
 public:
  enum class NodeKind : uint8_t {
    /// Splits into two semi-quadrants; the cut orientation follows
    /// TreeOptions::orientation (the paper always cuts vertically).
    kSquare,
    kVerticalSemi,    ///< west/east half; splits into south/north squares
    kHorizontalSemi,  ///< south/north half; splits into west/east squares
  };

  struct Node {
    Rect region;
    int32_t parent = -1;
    int32_t first_child = -1;  ///< children at first_child and first_child+1
    uint32_t count = 0;        ///< d(m): locations inside this node
    int16_t depth = 0;         ///< binary depth; root is 0 (Lemma 5's h(m))
    NodeKind kind = NodeKind::kSquare;
    bool live = true;  ///< false once abandoned by a collapse

    bool IsLeaf() const { return first_child < 0; }
  };

  /// Builds the tree over a snapshot. All locations must lie inside
  /// `extent`; its root is the extent itself.
  static Result<BinaryTree> Build(const LocationDatabase& db,
                                  const MapExtent& extent,
                                  const TreeOptions& options);

  /// Builds a tree rooted at an arbitrary (semi-)quadrant instead of a
  /// square map — the shape a parallel-anonymization jurisdiction takes when
  /// the greedy partitioner hands a semi-quadrant node to a server
  /// (Section V "Parallel Anonymization"). All locations must lie inside
  /// `root_region`, whose sides must be powers of two in the shape of
  /// `root_kind` (square, or twice as tall or as wide); every tree node's
  /// region qualifies.
  static Result<BinaryTree> BuildRooted(const LocationDatabase& db,
                                        const Rect& root_region,
                                        NodeKind root_kind,
                                        const TreeOptions& options);

  const MapExtent& extent() const { return extent_; }
  const TreeOptions& options() const { return options_; }

  /// Total arena slots, including abandoned nodes. Iterate indices in
  /// reverse for a children-before-parents (bottom-up) order: a child's
  /// index is always greater than its parent's.
  size_t num_nodes() const { return nodes_.size(); }
  /// Number of live nodes.
  size_t num_live_nodes() const { return live_nodes_; }

  static constexpr int32_t kRootId = 0;
  const Node& node(int32_t id) const { return nodes_[id]; }

  /// Row indices (into the snapshot) resident in leaf `id`. Empty for
  /// internal nodes.
  const std::vector<uint32_t>& LeafRows(int32_t id) const {
    return leaf_rows_[id];
  }

  /// The leaf whose region contains `p`.
  int32_t LeafForPoint(const Point& p) const;

  /// All snapshot rows resident in the subtree of `id`.
  std::vector<uint32_t> SubtreeRows(int32_t id) const {
    std::vector<uint32_t> rows;
    rows.reserve(node(id).count);
    GatherRows(id, &rows);
    return rows;
  }

  /// One node a move touched (its DP row may be stale) and what the move
  /// did to its count d(m): -1 on the old path, +1 on the new path, 0 for a
  /// node split, collapsed or abandoned. Over a batch of moves, a node's
  /// count before the batch is its count after minus its deltas' sum.
  struct Touch {
    int32_t node = -1;
    int32_t delta = 0;
  };

  /// Relocates snapshot row `row` from `old_location` to where the moved `db`
  /// holds it, updating counts on both root-to-leaf paths and re-splitting/
  /// collapsing where occupancy crosses the threshold. Appends every node it
  /// touches to `touched`, in no particular order: both paths, the children
  /// of every split and every node a collapse abandons. InvalidArgument for
  /// a bad row or destination.
  Status ApplyMove(uint32_t row, const Point& old_location,
                   const LocationDatabase& db, std::vector<Touch>* touched);

  /// Maximum depth over live nodes.
  int Height() const;

  /// Root-to-node path: one turn per level, 0 for a first child and 1 for a
  /// second, rendered "r.0.1". Unknown for an out-of-range or detached id.
  /// Walks up the parent links and allocates nothing; what provenance
  /// records store as `tree_path`.
  TreePath PathTo(int32_t id) const;

  /// Aggregate shape statistics for the Figure 3 experiment.
  struct ShapeStats {
    size_t live_nodes = 0;
    size_t leaves = 0;
    int height = 0;
    size_t max_leaf_occupancy = 0;
    double mean_leaf_depth = 0.0;
  };
  ShapeStats ComputeShapeStats() const;

  /// Approximate heap bytes held by the arena and the per-leaf row lists
  /// (memory accounting, obs/mem.h).
  uint64_t ApproxBytes() const {
    uint64_t bytes =
        static_cast<uint64_t>(nodes_.capacity()) * sizeof(Node) +
        static_cast<uint64_t>(leaf_rows_.capacity()) *
            sizeof(std::vector<uint32_t>);
    for (const std::vector<uint32_t>& rows : leaf_rows_) {
      bytes += static_cast<uint64_t>(rows.capacity()) * sizeof(uint32_t);
    }
    return bytes;
  }

 private:
  BinaryTree(MapExtent extent, TreeOptions options)
      : extent_(extent), options_(options) {}

  /// True if `id` may be split further (capacity, depth, and geometry).
  bool CanSplit(int32_t id) const;
  /// Materializes the two (empty, zero-count) children of leaf `id`, its
  /// west/east halves if `halves_x`, else its south/north halves; returns
  /// the first child's id.
  int32_t AddChildren(int32_t id, bool halves_x);
  /// Materializes the two children of leaf `id` and distributes its rows
  /// by their current locations in `db` (a kAdaptive square reads them
  /// first to pick the better-balanced cut).
  void SplitLeaf(int32_t id, const LocationDatabase& db);
  /// Builds everything below the root from one sort of the rows by their
  /// trie keys (`key_bits` wide), with `Entries` as the sort's entry layout.
  template <typename Entries>
  void GrowTrie(const LocationDatabase& db, const Entries& entries,
                int key_bits);
  /// Turns internal node `id` back into a leaf, gathering descendant rows;
  /// appends every node it abandons to `touched`.
  void Collapse(int32_t id, std::vector<Touch>* touched);
  void GatherRows(int32_t id, std::vector<uint32_t>* out) const;

  MapExtent extent_;
  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<std::vector<uint32_t>> leaf_rows_;
  size_t live_nodes_ = 0;
};

}  // namespace pasa

#endif  // PASA_INDEX_BINARY_TREE_H_
