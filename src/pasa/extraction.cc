#include "pasa/extraction.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <tuple>
#include <utility>

#include "obs/provenance.h"

namespace pasa {
namespace {

// Returns the (l1, l2) split of `j` locations between the children of `node`
// that achieves the minimum combined child cost. `j` comes from the DP
// bookkeeping, so a valid split always exists.
std::pair<uint32_t, uint32_t> FindChildSplit(const DpMatrix& matrix,
                                             uint32_t j, uint32_t d1,
                                             uint32_t d2, int32_t c1,
                                             int32_t c2) {
  const DpRow& r1 = matrix.rows[c1];
  const DpRow& r2 = matrix.rows[c2];
  Cost best = kInfiniteCost;
  std::pair<uint32_t, uint32_t> split{0, 0};
  auto consider = [&](uint32_t l1) {
    if (l1 > j) return;
    const uint32_t l2 = j - l1;
    const Cost c = r1.CostAt(l1, d1);
    if (c >= kInfiniteCost) return;
    const Cost cc = r2.CostAt(l2, d2);
    if (cc >= kInfiniteCost) return;
    if (c + cc < best) {
      best = c + cc;
      split = {l1, l2};
    }
  };
  for (size_t l1 = 0; l1 < r1.dense.size(); ++l1) {
    consider(static_cast<uint32_t>(l1));
  }
  consider(d1);
  assert(best < kInfiniteCost && "DP bookkeeping j has no valid child split");
  return split;
}

// Extracts into `out`. With `changed` null every node is re-derived;
// otherwise `out` holds the policy extracted before the repair that changed
// those nodes (see UpdateOptimalPolicy) and pass 1 revisits only what they
// reach.
Status Extract(const BinaryTree& tree, const DpMatrix& matrix, int k,
               const std::vector<int32_t>* changed, ExtractedPolicy* out) {
  const BinaryTree::Node& root = tree.node(BinaryTree::kRootId);
  if (root.count == 0) {
    *out = ExtractedPolicy{};
    out->config.passed_up.assign(tree.num_nodes(), 0);
    return Status::Ok();
  }
  if (root.count < static_cast<uint32_t>(k)) {
    return Status::Infeasible("fewer than k users in the snapshot");
  }
  {
    Result<Cost> optimal = matrix.OptimalCost(tree);
    if (!optimal.ok()) return optimal.status();
    out->cost = *optimal;
  }

  // Pass 1 (top-down): fix C(m) for every live node, following the
  // bookkeeping of minimum-cost entries. A node's children's C depend only
  // on its own row, count and C and on its children's rows and counts, so
  // they are re-derived only where one of those changed, and the walk
  // descends only into a child whose C changed or whose subtree holds a
  // changed node. New slots and abandoned nodes hold 0, as in a full
  // extraction.
  std::vector<uint32_t>& u_of = out->config.passed_up;
  std::vector<uint8_t> mark;  // empty: everything changed
  enum : uint8_t { kChanged = 1, kBelow = 2 };  // kBelow: subtree has one
  if (changed == nullptr) {
    u_of.assign(tree.num_nodes(), 0);
  } else {
    u_of.resize(tree.num_nodes(), 0);
    mark.assign(tree.num_nodes(), 0);
    for (const int32_t id : *changed) {
      if (!tree.node(id).live) {
        u_of[id] = 0;
        continue;
      }
      mark[id] |= kChanged;
      for (int32_t cur = id; cur >= 0 && !(mark[cur] & kBelow);
           cur = tree.node(cur).parent) {
        mark[cur] |= kBelow;
      }
    }
  }
  auto is_changed = [&](int32_t id) {
    return mark.empty() || (mark[id] & kChanged) != 0;
  };
  auto below = [&](int32_t id) {
    return mark.empty() || (mark[id] & kBelow) != 0;
  };
  // (node, whether the C handed to it changed); the root's C is always 0.
  std::vector<std::pair<int32_t, bool>> stack;
  if (below(BinaryTree::kRootId)) {
    stack.emplace_back(BinaryTree::kRootId, false);
  }
  while (!stack.empty()) {
    const auto [id, handed] = stack.back();
    stack.pop_back();
    const BinaryTree::Node& n = tree.node(id);
    if (n.IsLeaf()) continue;
    const int32_t c1 = n.first_child;
    const int32_t c2 = n.first_child + 1;
    bool moved1 = false;
    bool moved2 = false;
    if (handed || is_changed(id) || is_changed(c1) || is_changed(c2)) {
      const uint32_t d1 = tree.node(c1).count;
      const uint32_t d2 = tree.node(c2).count;
      const uint32_t u = u_of[id];
      uint32_t l1 = d1;
      uint32_t l2 = d2;
      if (u != n.count) {
        // Otherwise pass-everything-up: the whole subtree cloaks nothing.
        const DpRow& row = matrix.rows[id];
        if (u >= row.children_pass.size()) {
          return Status::Internal("C(m) outside the node's DP row");
        }
        std::tie(l1, l2) = FindChildSplit(matrix, row.children_pass[u], d1,
                                          d2, c1, c2);
      }
      moved1 = l1 != u_of[c1];
      moved2 = l2 != u_of[c2];
      u_of[c1] = l1;
      u_of[c2] = l2;
    }
    if (moved1 || below(c1)) stack.emplace_back(c1, moved1);
    if (moved2 || below(c2)) stack.emplace_back(c2, moved2);
  }

  // Pass 2 (bottom-up): materialize the policy. Each node cloaks the first
  // (available - C(m)) rows of its pool and passes the rest up. Pools live
  // in one buffer: a node's pool is the buffer's tail from where its walk
  // began, and what it passes up is moved down to that start. The buffer
  // holds one leaf's rows plus what the finished siblings along the current
  // path pass up, so it stays small.
  const size_t num_rows = root.count;
  out->assignment.assign(num_rows, -1);
  std::vector<uint32_t> pool(std::min<size_t>(num_rows, 4096));
  size_t end = 0;
  // False when a node's pool is smaller than its C(m).
  auto assign_pool = [&](auto&& self, int32_t id) -> bool {
    const BinaryTree::Node& n = tree.node(id);
    const size_t start = end;
    if (n.IsLeaf()) {
      const std::vector<uint32_t>& rows = tree.LeafRows(id);
      if (end + rows.size() > pool.size()) {
        pool.resize(std::max(2 * pool.size(), end + rows.size()));
      }
      std::copy(rows.begin(), rows.end(), pool.begin() + end);
      end += rows.size();
    } else if (!self(self, n.first_child) ||
               !self(self, n.first_child + 1)) {
      return false;
    }
    const uint32_t u = u_of[id];
    if (end - start < u) return false;
    const size_t cloaked = end - start - u;
    for (size_t i = start; i < start + cloaked; ++i) {
      out->assignment[pool[i]] = id;
    }
    if (cloaked > 0) {  // an empty pool's data() may be null
      std::memmove(pool.data() + start, pool.data() + start + cloaked,
                   u * sizeof(uint32_t));
    }
    end = start + u;
    return true;
  };
  if (!assign_pool(assign_pool, BinaryTree::kRootId) || end != 0 ||
      std::find(out->assignment.begin(), out->assignment.end(), -1) !=
          out->assignment.end()) {
    return Status::Internal("complete configuration left rows uncloaked");
  }
  return Status::Ok();
}

}  // namespace

Result<ExtractedPolicy> ExtractOptimalPolicy(const BinaryTree& tree,
                                             const DpMatrix& matrix, int k) {
  ExtractedPolicy out;
  if (Status s = Extract(tree, matrix, k, nullptr, &out); !s.ok()) return s;
  return out;
}

Status UpdateOptimalPolicy(const BinaryTree& tree, const DpMatrix& matrix,
                           int k, const std::vector<int32_t>& changed,
                           ExtractedPolicy* policy) {
  return Extract(tree, matrix, k, &changed, policy);
}

uint32_t ExtractedPolicy::GroupSize(const BinaryTree& tree,
                                    int32_t node) const {
  const BinaryTree::Node& n = tree.node(node);
  const uint32_t available =
      n.IsLeaf() ? n.count
                 : config.C(n.first_child) + config.C(n.first_child + 1);
  return available - config.C(node);
}

CloakingTable ExtractedPolicy::Table(const BinaryTree& tree) const {
  CloakingTable table(assignment.size());
  for (size_t row = 0; row < assignment.size(); ++row) {
    table.Assign(row, tree.node(assignment[row]).region);
  }
  return table;
}

void AnnotateCloakDecision(const BinaryTree& tree,
                           const ExtractedPolicy& policy, int k, int32_t node,
                           int64_t rid, int64_t sender,
                           obs::ProvenanceRecord* record) {
  const BinaryTree::Node& cloak = tree.node(node);
  record->rid = rid;
  record->sender = sender;
  record->k = k;
  record->cloak_x1 = cloak.region.x1;
  record->cloak_y1 = cloak.region.y1;
  record->cloak_x2 = cloak.region.x2;
  record->cloak_y2 = cloak.region.y2;
  record->cloak_area = cloak.region.Area();
  record->policy_node = node;
  if (obs::ProvenanceRing::Global().enabled()) {
    record->tree_path = tree.PathTo(node);
  }
  record->node_depth = cloak.depth;
  record->group_size = policy.GroupSize(tree, node);
  record->passed_up = policy.config.C(node);
}

}  // namespace pasa
