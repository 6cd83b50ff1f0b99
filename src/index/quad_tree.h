#ifndef PASA_INDEX_QUAD_TREE_H_
#define PASA_INDEX_QUAD_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geo/rect.h"
#include "index/morton.h"
#include "index/tree_options.h"
#include "model/location_database.h"

namespace pasa {

/// The classical quad tree partition of the map (Section IV): every non-leaf
/// square has exactly four square children. Used by the first-cut Bulk_dp
/// algorithm and by the PUQ baseline [16]. Immutable once built; the
/// incremental machinery lives on BinaryTree.
///
/// Like BinaryTree, the tree is lazily materialized per TreeOptions and its
/// leaves partition the map, and a child's arena index is always greater
/// than its parent's (reverse index order == bottom-up order).
class QuadTree {
 public:
  struct Node {
    Rect region;
    int32_t parent = -1;
    int32_t first_child = -1;  ///< 4 consecutive children, SW SE NW NE
    uint32_t count = 0;        ///< d(m)
    int16_t depth = 0;         ///< root is 0

    bool IsLeaf() const { return first_child < 0; }
  };

  /// Builds the tree over a snapshot; all locations must lie in `extent`.
  static Result<QuadTree> Build(const LocationDatabase& db,
                                const MapExtent& extent,
                                const TreeOptions& options);

  const MapExtent& extent() const { return extent_; }
  size_t num_nodes() const { return nodes_.size(); }
  static constexpr int32_t kRootId = 0;
  const Node& node(int32_t id) const { return nodes_[id]; }

  /// Row indices resident in leaf `id`; empty for internal nodes.
  const std::vector<uint32_t>& LeafRows(int32_t id) const {
    return leaf_rows_[id];
  }

  /// The leaf whose region contains `p`.
  int32_t LeafForPoint(const Point& p) const;

  int Height() const;

  /// Approximate heap bytes held by the arena and per-leaf row lists
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
  QuadTree(MapExtent extent, TreeOptions options)
      : extent_(extent), options_(options) {}

  bool CanSplit(int32_t id) const;
  void Split(int32_t id, const LocationDatabase& db);

  MapExtent extent_;
  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<std::vector<uint32_t>> leaf_rows_;
};

}  // namespace pasa

#endif  // PASA_INDEX_QUAD_TREE_H_
