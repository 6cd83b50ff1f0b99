#include "index/binary_tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

namespace pasa {

namespace {

// The trie key of `p`: its offsets from the root's south-west corner
// interleaved with the x bit above the y bit at each level, so the paper's
// cut order (x, then y, one bit each) reads the key from its top bit down.
// MortonIndex interleaves the other way round, for its SW, SE, NW, NE order.
uint64_t TrieKey(const Point& p, const Rect& root) {
  return (Part1By1(static_cast<uint64_t>(p.x - root.x1)) << 1) |
         Part1By1(static_cast<uint64_t>(p.y - root.y1));
}

// A row's entry in the build sort, packed into one word (key above row id)
// when both fit: 34 key bits at log2_side 17 leave 30 for the row.
struct PackedEntries {
  using Entry = uint64_t;
  int row_bits = 0;
  Entry Make(uint64_t key, uint32_t row) const {
    return (key << row_bits) | row;
  }
  uint64_t Key(Entry e) const { return e >> row_bits; }
  uint32_t Row(Entry e) const {
    return static_cast<uint32_t>(e & ((uint64_t{1} << row_bits) - 1));
  }
};

// The same entry as a (key, row) pair, for keys too wide to share a word.
struct PairedEntries {
  struct Entry {
    uint64_t key;
    uint32_t row;
  };
  Entry Make(uint64_t key, uint32_t row) const { return {key, row}; }
  uint64_t Key(const Entry& e) const { return e.key; }
  uint32_t Row(const Entry& e) const { return e.row; }
};

// Stable LSD radix sort of `sorted` by the low `key_bits` bits of each
// entry's key, kDigitBits a pass; entries with equal keys keep their order.
template <typename Entries>
void SortByKey(const Entries& entries, int key_bits,
               std::vector<typename Entries::Entry>* sorted) {
  constexpr int kDigitBits = 12;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  const size_t n = sorted->size();
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;
  if (n < 2 || passes == 0) return;
  std::vector<uint32_t> counts(static_cast<size_t>(passes) << kDigitBits);
  for (const auto& e : *sorted) {
    const uint64_t key = entries.Key(e);
    for (int p = 0; p < passes; ++p) {
      ++counts[(static_cast<size_t>(p) << kDigitBits) +
               ((key >> (p * kDigitBits)) & kDigitMask)];
    }
  }
  std::vector<typename Entries::Entry> buffer(n);
  for (int p = 0; p < passes; ++p) {
    const int shift = p * kDigitBits;
    uint32_t* offset = &counts[static_cast<size_t>(p) << kDigitBits];
    // A digit every key shares leaves the order as it is.
    if (offset[(entries.Key(sorted->front()) >> shift) & kDigitMask] == n) {
      continue;
    }
    uint32_t sum = 0;
    for (uint64_t d = 0; d <= kDigitMask; ++d) {
      const uint32_t c = offset[d];
      offset[d] = sum;
      sum += c;
    }
    for (const auto& e : *sorted) {
      buffer[offset[(entries.Key(e) >> shift) & kDigitMask]++] = e;
    }
    sorted->swap(buffer);
  }
}

// Whether a square's vertical cut splits its `total` users at least as
// evenly as the horizontal one (kAdaptive; ties go to the paper's cut).
bool VerticalCutIsBetter(int64_t west, int64_t south, int64_t total) {
  return std::abs(2 * west - total) <= std::abs(2 * south - total);
}

}  // namespace

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
  // Covering bounds both sides to [1, 2^31].
  Result<MapExtent> extent = MapExtent::Covering(root_region);
  if (!extent.ok()) return extent.status();
  const Coord width = root_region.width();
  const Coord height = root_region.height();
  if (!std::has_single_bit(static_cast<uint64_t>(width)) ||
      !std::has_single_bit(static_cast<uint64_t>(height))) {
    return Status::InvalidArgument("root region " + root_region.ToString() +
                                   " has a side that is not a power of two");
  }
  const bool shaped =
      root_kind == NodeKind::kSquare         ? width == height
      : root_kind == NodeKind::kVerticalSemi ? height == 2 * width
                                             : width == 2 * height;
  if (!shaped) {
    return Status::InvalidArgument("root region " + root_region.ToString() +
                                   " does not have its node kind's shape");
  }
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
  tree.live_nodes_ = 1;

  const int key_bits = 2 * extent->log2_side;
  const int row_bits = std::bit_width(db.size() > 0 ? db.size() - 1 : 0);
  if (key_bits + row_bits <= 64) {
    tree.GrowTrie(db, PackedEntries{row_bits}, key_bits);
  } else {
    tree.GrowTrie(db, PairedEntries{}, key_bits);
  }
  return tree;
}

template <typename Entries>
void BinaryTree::GrowTrie(const LocationDatabase& db, const Entries& entries,
                          int key_bits) {
  using Entry = typename Entries::Entry;
  const Rect root = nodes_[kRootId].region;
  std::vector<Entry> sorted(db.size());
  for (uint32_t i = 0; i < db.size(); ++i) {
    sorted[i] = entries.Make(TrieKey(db.row(i).location, root), i);
  }
  SortByKey(entries, key_bits, &sorted);

  // A leaf's rows go in row-id order, as splitting leaf by leaf leaves
  // them: the walk marks each row with its leaf, then one pass in id order
  // hands the rows out.
  std::vector<int32_t> leaf_of(db.size());

  // Every node is the contiguous run of `sorted` whose keys share its
  // prefix, in key order, so a cut is one partition point on the bit of the
  // side it halves. The stack order is SplitLeaf's, so node ids match a
  // build that splits leaf by leaf.
  struct Run {
    int32_t id;
    uint32_t lo;
    uint32_t hi;
  };
  std::vector<Run> stack = {{kRootId, 0, static_cast<uint32_t>(db.size())}};
  while (!stack.empty()) {
    const Run run = stack.back();
    stack.pop_back();
    const auto begin = sorted.begin() + run.lo;
    const auto end = sorted.begin() + run.hi;
    if (!CanSplit(run.id)) {
      leaf_rows_[run.id].reserve(run.hi - run.lo);
      for (auto it = begin; it != end; ++it) {
        leaf_of[entries.Row(*it)] = run.id;
      }
      continue;
    }
    const Node n = nodes_[run.id];  // AddChildren grows nodes_
    const auto below = [&entries](int bit) {
      return [&entries, bit](const Entry& e) {
        return ((entries.Key(e) >> bit) & 1) == 0;
      };
    };
    const int x_bit = 2 * std::countr_zero(static_cast<uint64_t>(
                              n.region.width())) - 1;
    const int y_bit = 2 * std::countr_zero(static_cast<uint64_t>(
                              n.region.height())) - 2;
    bool halves_x = n.kind != NodeKind::kVerticalSemi;
    if (n.kind == NodeKind::kSquare &&
        options_.orientation == SplitOrientation::kAdaptive) {
      const int64_t west =
          std::partition_point(begin, end, below(x_bit)) - begin;
      const int64_t south = std::count_if(begin, end, below(y_bit));
      halves_x = VerticalCutIsBetter(west, south, run.hi - run.lo);
      // The range is in x-major key order; a horizontal cut regroups it by
      // the y bit, which leaves each half in the order its subtree needs.
      if (!halves_x) std::stable_partition(begin, end, below(y_bit));
    }
    const uint32_t mid = static_cast<uint32_t>(
        std::partition_point(begin, end, below(halves_x ? x_bit : y_bit)) -
        sorted.begin());
    const int32_t first = AddChildren(run.id, halves_x);
    nodes_[first].count = mid - run.lo;
    nodes_[first + 1].count = run.hi - mid;
    stack.push_back({first, run.lo, mid});
    stack.push_back({first + 1, mid, run.hi});
  }
  for (uint32_t row = 0; row < db.size(); ++row) {
    leaf_rows_[leaf_of[row]].push_back(row);
  }
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

int32_t BinaryTree::AddChildren(int32_t id, bool halves_x) {
  assert(nodes_[id].IsLeaf());
  const Node parent = nodes_[id];
  const int32_t first = static_cast<int32_t>(nodes_.size());
  for (int which = 0; which < 2; ++which) {
    Node child;
    if (halves_x) {
      child.region = which == 0 ? parent.region.WestHalf()
                                : parent.region.EastHalf();
    } else {
      child.region = which == 0 ? parent.region.SouthHalf()
                                : parent.region.NorthHalf();
    }
    child.parent = id;
    child.depth = static_cast<int16_t>(parent.depth + 1);
    if (parent.kind == NodeKind::kSquare) {
      child.kind = halves_x ? NodeKind::kVerticalSemi
                            : NodeKind::kHorizontalSemi;
    }
    nodes_.push_back(child);
    leaf_rows_.emplace_back();
  }
  live_nodes_ += 2;
  nodes_[id].first_child = first;
  return first;
}

void BinaryTree::SplitLeaf(int32_t id, const LocationDatabase& db) {
  const Node& n = nodes_[id];
  bool halves_x = n.kind != NodeKind::kVerticalSemi;
  if (n.kind == NodeKind::kSquare &&
      options_.orientation == SplitOrientation::kAdaptive) {
    const Coord midx = n.region.x1 + n.region.width() / 2;
    const Coord midy = n.region.y1 + n.region.height() / 2;
    int64_t west = 0, south = 0;
    for (const uint32_t row : leaf_rows_[id]) {
      const Point& p = db.row(row).location;
      if (p.x < midx) ++west;
      if (p.y < midy) ++south;
    }
    halves_x = VerticalCutIsBetter(west, south, n.count);
  }
  const int32_t first = AddChildren(id, halves_x);

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
    leaf_rows_[cur].shrink_to_fit();
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

TreePath BinaryTree::PathTo(int32_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return TreePath();
  // Collected leaf-to-root: the node's own turn is the lowest bit.
  uint64_t turns = 0;
  int depth = 0;
  for (int32_t cur = id; cur != kRootId; ++depth) {
    const int32_t parent = nodes_[cur].parent;
    // An abandoned/detached node, or one deeper than a path can hold.
    if (parent < 0 || depth == TreePath::kMaxDepth) return TreePath();
    if (cur != nodes_[parent].first_child) turns |= uint64_t{1} << depth;
    cur = parent;
  }
  return TreePath::FromTurns(turns, depth);
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
