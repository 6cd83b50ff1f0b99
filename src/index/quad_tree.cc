#include "index/quad_tree.h"

#include <algorithm>
#include <cassert>

namespace pasa {

Result<QuadTree> QuadTree::Build(const LocationDatabase& db,
                                 const MapExtent& extent,
                                 const TreeOptions& options) {
  if (options.split_threshold < 1) {
    return Status::InvalidArgument("split_threshold must be >= 1");
  }
  for (const UserLocation& row : db.rows()) {
    if (!extent.Contains(row.location)) {
      return Status::InvalidArgument("location " + row.location.ToString() +
                                     " outside map extent");
    }
  }
  QuadTree tree(extent, options);

  Node root;
  root.region = extent.ToRect();
  root.count = static_cast<uint32_t>(db.size());
  tree.nodes_.push_back(root);
  tree.leaf_rows_.emplace_back();
  tree.leaf_rows_[0].reserve(db.size());
  for (uint32_t i = 0; i < db.size(); ++i) tree.leaf_rows_[0].push_back(i);

  std::vector<int32_t> stack = {kRootId};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    if (tree.CanSplit(id)) {
      tree.Split(id, db);
      for (int q = 0; q < 4; ++q) {
        stack.push_back(tree.nodes_[id].first_child + q);
      }
    }
  }
  return tree;
}

bool QuadTree::CanSplit(int32_t id) const {
  const Node& n = nodes_[id];
  if (!n.IsLeaf()) return false;
  if (n.count < static_cast<uint32_t>(options_.split_threshold)) return false;
  if (n.depth >= options_.max_depth) return false;
  return n.region.width() >= 2;
}

void QuadTree::Split(int32_t id, const LocationDatabase& db) {
  assert(nodes_[id].IsLeaf());
  const int32_t first = static_cast<int32_t>(nodes_.size());
  for (int q = 0; q < 4; ++q) {
    Node child;
    child.region = nodes_[id].region.Quadrant(q);
    child.parent = id;
    child.depth = static_cast<int16_t>(nodes_[id].depth + 1);
    nodes_.push_back(child);
    leaf_rows_.emplace_back();
  }
  nodes_[id].first_child = first;

  std::vector<uint32_t>& rows = leaf_rows_[id];
  const Rect region = nodes_[id].region;
  const Coord midx = region.x1 + region.width() / 2;
  const Coord midy = region.y1 + region.height() / 2;
  for (const uint32_t row : rows) {
    const Point& p = db.row(row).location;
    const int q = ((p.y >= midy) ? 2 : 0) | ((p.x >= midx) ? 1 : 0);
    leaf_rows_[first + q].push_back(row);
    ++nodes_[first + q].count;
  }
  rows.clear();
  rows.shrink_to_fit();
}

int32_t QuadTree::LeafForPoint(const Point& p) const {
  assert(extent_.Contains(p));
  int32_t id = kRootId;
  while (!nodes_[id].IsLeaf()) {
    const Node& n = nodes_[id];
    const Coord midx = n.region.x1 + n.region.width() / 2;
    const Coord midy = n.region.y1 + n.region.height() / 2;
    const int q = ((p.y >= midy) ? 2 : 0) | ((p.x >= midx) ? 1 : 0);
    id = n.first_child + q;
  }
  return id;
}

int QuadTree::Height() const {
  int height = 0;
  for (const Node& n : nodes_) {
    height = std::max(height, static_cast<int>(n.depth));
  }
  return height;
}

}  // namespace pasa
