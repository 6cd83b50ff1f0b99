#include "index/binary_tree.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace pasa {

Result<BinaryTree> BinaryTree::Build(const LocationDatabase& db,
                                     const MapExtent& extent,
                                     const TreeOptions& options) {
  return BuildRooted(db, extent.ToRect(), NodeKind::kSquare, options);
}

Result<BinaryTree> BinaryTree::BuildRooted(const LocationDatabase& db,
                                           const Rect& root_region,
                                           NodeKind root_kind,
                                           const TreeOptions& options) {
  if (options.split_threshold < 1) {
    return Status::InvalidArgument("split_threshold must be >= 1");
  }
  Result<MapExtent> extent = MapExtent::Covering(root_region);
  if (!extent.ok()) return extent.status();
  for (const UserLocation& row : db.rows()) {
    if (!root_region.Contains(row.location)) {
      return Status::InvalidArgument("location " + row.location.ToString() +
                                     " outside the root region");
    }
  }
  BinaryTree tree(*extent, options);

  Node root;
  root.region = root_region;
  root.count = static_cast<uint32_t>(db.size());
  root.kind = root_kind;
  tree.nodes_.push_back(root);
  tree.leaf_rows_.emplace_back();
  tree.leaf_rows_[0].reserve(db.size());
  for (uint32_t i = 0; i < db.size(); ++i) tree.leaf_rows_[0].push_back(i);
  tree.live_nodes_ = 1;

  std::vector<int32_t> stack = {kRootId};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    if (tree.CanSplit(id)) {
      tree.SplitLeaf(id, db);
      stack.push_back(tree.nodes_[id].first_child);
      stack.push_back(tree.nodes_[id].first_child + 1);
    }
  }
  return tree;
}

bool BinaryTree::CanSplit(int32_t id) const {
  const Node& n = nodes_[id];
  if (!n.IsLeaf() || !n.live) return false;
  if (n.count < static_cast<uint32_t>(options_.split_threshold)) return false;
  if (n.depth >= options_.max_depth) return false;
  // The dimension being halved must be at least 2 units wide.
  switch (n.kind) {
    case NodeKind::kSquare:
      return n.region.width() >= 2;  // square: either cut needs side >= 2
    case NodeKind::kVerticalSemi:
      return n.region.height() >= 2;
    case NodeKind::kHorizontalSemi:
      return n.region.width() >= 2;
  }
  return false;
}

BinaryTree::SplitPlan BinaryTree::PlanSplit(
    int32_t id, const LocationDatabase& db) const {
  const Node& n = nodes_[id];
  SplitPlan plan;
  switch (n.kind) {
    case NodeKind::kSquare: {
      bool vertical = true;
      if (options_.orientation == SplitOrientation::kAdaptive) {
        // Pick the cut that splits the resident users most evenly; ties go
        // to the paper's vertical cut.
        const Coord midx = n.region.x1 + n.region.width() / 2;
        const Coord midy = n.region.y1 + n.region.height() / 2;
        int64_t west = 0, south = 0;
        for (const uint32_t row : leaf_rows_[id]) {
          const Point& p = db.row(row).location;
          if (p.x < midx) ++west;
          if (p.y < midy) ++south;
        }
        const int64_t total = static_cast<int64_t>(n.count);
        const int64_t imbalance_v = std::abs(2 * west - total);
        const int64_t imbalance_h = std::abs(2 * south - total);
        vertical = imbalance_v <= imbalance_h;
      }
      if (vertical) {
        plan = {n.region.WestHalf(), n.region.EastHalf(),
                NodeKind::kVerticalSemi};
      } else {
        plan = {n.region.SouthHalf(), n.region.NorthHalf(),
                NodeKind::kHorizontalSemi};
      }
      break;
    }
    case NodeKind::kVerticalSemi:
      plan = {n.region.SouthHalf(), n.region.NorthHalf(), NodeKind::kSquare};
      break;
    case NodeKind::kHorizontalSemi:
      plan = {n.region.WestHalf(), n.region.EastHalf(), NodeKind::kSquare};
      break;
  }
  return plan;
}

void BinaryTree::SplitLeaf(int32_t id, const LocationDatabase& db) {
  assert(nodes_[id].IsLeaf());
  const SplitPlan plan = PlanSplit(id, db);
  const int32_t first = static_cast<int32_t>(nodes_.size());
  for (int which = 0; which < 2; ++which) {
    Node child;
    child.region = which == 0 ? plan.first : plan.second;
    child.parent = id;
    child.depth = static_cast<int16_t>(nodes_[id].depth + 1);
    child.kind = plan.child_kind;
    nodes_.push_back(child);
    leaf_rows_.emplace_back();
  }
  live_nodes_ += 2;
  Node& parent = nodes_[id];
  parent.first_child = first;

  // Distribute the parent's resident rows by geometry.
  std::vector<uint32_t>& rows = leaf_rows_[id];
  const Rect first_region = nodes_[first].region;
  for (size_t i = 0; i < rows.size(); ++i) {
    // Below the top levels a leaf's rows lie sparse in the snapshot.
    if (i + 16 < rows.size()) __builtin_prefetch(&db.row(rows[i + 16]));
    const uint32_t row = rows[i];
    const int which = first_region.Contains(db.row(row).location) ? 0 : 1;
    leaf_rows_[first + which].push_back(row);
    ++nodes_[first + which].count;
  }
  rows.clear();
  rows.shrink_to_fit();
}

void BinaryTree::GatherRows(int32_t id, std::vector<uint32_t>* out) const {
  const Node& n = nodes_[id];
  if (n.IsLeaf()) {
    out->insert(out->end(), leaf_rows_[id].begin(), leaf_rows_[id].end());
    return;
  }
  GatherRows(n.first_child, out);
  GatherRows(n.first_child + 1, out);
}

void BinaryTree::Collapse(int32_t id, std::vector<Touch>* touched) {
  Node& n = nodes_[id];
  assert(!n.IsLeaf());
  std::vector<uint32_t> rows;
  rows.reserve(n.count);
  GatherRows(id, &rows);
  // Abandon the whole subtree below id.
  std::vector<int32_t> stack = {n.first_child, n.first_child + 1};
  while (!stack.empty()) {
    const int32_t cur = stack.back();
    stack.pop_back();
    Node& c = nodes_[cur];
    if (!c.IsLeaf()) {
      stack.push_back(c.first_child);
      stack.push_back(c.first_child + 1);
    }
    c.live = false;
    --live_nodes_;
    touched->push_back({cur, 0});
    leaf_rows_[cur].clear();
  }
  n.first_child = -1;
  leaf_rows_[id] = std::move(rows);
}

int32_t BinaryTree::LeafForPoint(const Point& p) const {
  assert(nodes_[kRootId].region.Contains(p));
  int32_t id = kRootId;
  while (!nodes_[id].IsLeaf()) {
    const int32_t child = nodes_[id].first_child;
    id = nodes_[child].region.Contains(p) ? child : child + 1;
  }
  return id;
}

Status BinaryTree::ApplyMove(uint32_t row, const Point& old_location,
                             const LocationDatabase& db,
                             std::vector<Touch>* touched) {
  if (row >= db.size()) return Status::InvalidArgument("row out of range");
  const Point& new_location = db.row(row).location;
  if (!nodes_[kRootId].region.Contains(new_location)) {
    return Status::InvalidArgument("new location " + new_location.ToString() +
                                   " outside the tree's root region");
  }

  const int32_t old_leaf = LeafForPoint(old_location);
  // Remove the row from its old leaf.
  std::vector<uint32_t>& old_rows = leaf_rows_[old_leaf];
  const auto it = std::find(old_rows.begin(), old_rows.end(), row);
  if (it == old_rows.end()) {
    return Status::Internal("row not resident in its leaf");
  }
  *it = old_rows.back();
  old_rows.pop_back();

  // Decrement counts up the old path.
  for (int32_t cur = old_leaf; cur >= 0; cur = nodes_[cur].parent) {
    --nodes_[cur].count;
    touched->push_back({cur, -1});
  }

  const int32_t new_leaf = LeafForPoint(new_location);
  leaf_rows_[new_leaf].push_back(row);
  for (int32_t cur = new_leaf; cur >= 0; cur = nodes_[cur].parent) {
    ++nodes_[cur].count;
    touched->push_back({cur, +1});
  }

  // Structural fix-up 1: the new leaf may now exceed the split threshold.
  std::vector<int32_t> stack = {new_leaf};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    if (CanSplit(id)) {
      SplitLeaf(id, db);
      const int32_t first = nodes_[id].first_child;
      touched->push_back({first, 0});
      touched->push_back({first + 1, 0});
      stack.push_back(first);
      stack.push_back(first + 1);
    }
  }

  // Structural fix-up 2: the highest internal ancestor on the old path whose
  // count fell to the threshold or below is over-refined; collapse it so the
  // tree matches what a fresh build would produce.
  int32_t to_collapse = -1;
  for (int32_t cur = nodes_[old_leaf].parent; cur >= 0;
       cur = nodes_[cur].parent) {
    if (!nodes_[cur].IsLeaf() &&
        nodes_[cur].count < static_cast<uint32_t>(options_.split_threshold)) {
      to_collapse = cur;
    }
  }
  if (to_collapse >= 0) {
    Collapse(to_collapse, touched);
    touched->push_back({to_collapse, 0});
  }
  return Status::Ok();
}

int BinaryTree::Height() const {
  int height = 0;
  for (const Node& n : nodes_) {
    if (n.live) height = std::max(height, static_cast<int>(n.depth));
  }
  return height;
}

std::string BinaryTree::PathString(int32_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return "";
  std::string turns;  // collected leaf-to-root, reversed at the end
  int32_t cur = id;
  while (cur != kRootId) {
    const int32_t parent = nodes_[cur].parent;
    if (parent < 0) return "";  // abandoned/detached node
    turns += cur == nodes_[parent].first_child ? '0' : '1';
    cur = parent;
  }
  std::string path = "r";
  for (auto it = turns.rbegin(); it != turns.rend(); ++it) {
    path += '.';
    path += *it;
  }
  return path;
}

BinaryTree::ShapeStats BinaryTree::ComputeShapeStats() const {
  ShapeStats s;
  double depth_sum = 0.0;
  for (const Node& n : nodes_) {
    if (!n.live) continue;
    ++s.live_nodes;
    s.height = std::max(s.height, static_cast<int>(n.depth));
    if (n.IsLeaf()) {
      ++s.leaves;
      s.max_leaf_occupancy =
          std::max(s.max_leaf_occupancy, static_cast<size_t>(n.count));
      depth_sum += n.depth;
    }
  }
  if (s.leaves > 0) s.mean_leaf_depth = depth_sum / s.leaves;
  return s;
}

}  // namespace pasa
