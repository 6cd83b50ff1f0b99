#include "pasa/extraction.h"

#include <algorithm>
#include <cassert>

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

}  // namespace

Result<ExtractedPolicy> ExtractOptimalPolicy(const BinaryTree& tree,
                                             const DpMatrix& matrix, int k) {
  const BinaryTree::Node& root = tree.node(BinaryTree::kRootId);
  ExtractedPolicy out;
  out.config.passed_up.assign(tree.num_nodes(), 0);
  if (root.count == 0) return out;
  if (root.count < static_cast<uint32_t>(k)) {
    return Status::Infeasible("fewer than k users in the snapshot");
  }
  {
    Result<Cost> optimal = matrix.OptimalCost(tree);
    if (!optimal.ok()) return optimal.status();
    out.cost = *optimal;
  }

  // Pass 1 (top-down): fix C(m) for every live node, following the
  // bookkeeping of minimum-cost entries.
  std::vector<uint32_t>& u_of = out.config.passed_up;
  std::vector<int32_t> stack = {BinaryTree::kRootId};
  u_of[BinaryTree::kRootId] = 0;
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const BinaryTree::Node& n = tree.node(id);
    if (n.IsLeaf()) continue;
    const int32_t c1 = n.first_child;
    const int32_t c2 = n.first_child + 1;
    const uint32_t d1 = tree.node(c1).count;
    const uint32_t d2 = tree.node(c2).count;
    const uint32_t u = u_of[id];
    if (u == n.count) {
      // Pass-everything-up: the whole subtree cloaks nothing.
      u_of[c1] = d1;
      u_of[c2] = d2;
    } else {
      const DpRow& row = matrix.rows[id];
      assert(u < row.children_pass.size());
      const uint32_t j = row.children_pass[u];
      const auto [l1, l2] = FindChildSplit(matrix, j, d1, d2, c1, c2);
      u_of[c1] = l1;
      u_of[c2] = l2;
    }
    stack.push_back(c1);
    stack.push_back(c2);
  }

  // Pass 2 (bottom-up): materialize the policy. Each node cloaks the first
  // (available - C(m)) rows of its pool and passes the rest up.
  const size_t num_rows = root.count;
  out.assignment.assign(num_rows, -1);
  auto assign_pool = [&](auto&& self, int32_t id) -> std::vector<uint32_t> {
    const BinaryTree::Node& n = tree.node(id);
    std::vector<uint32_t> pool;
    if (n.IsLeaf()) {
      pool = tree.LeafRows(id);
    } else {
      pool = self(self, n.first_child);
      std::vector<uint32_t> right = self(self, n.first_child + 1);
      pool.insert(pool.end(), right.begin(), right.end());
    }
    const uint32_t u = u_of[id];
    assert(pool.size() >= u);
    const size_t cloaked = pool.size() - u;
    for (size_t i = 0; i < cloaked; ++i) out.assignment[pool[i]] = id;
    pool.erase(pool.begin(), pool.begin() + static_cast<ptrdiff_t>(cloaked));
    return pool;
  };
  std::vector<uint32_t> leftover = assign_pool(assign_pool, BinaryTree::kRootId);
  if (!leftover.empty() ||
      std::find(out.assignment.begin(), out.assignment.end(), -1) !=
          out.assignment.end()) {
    return Status::Internal("complete configuration left rows uncloaked");
  }
  return out;
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
    record->tree_path = tree.PathString(node);
  }
  record->node_depth = cloak.depth;
  record->group_size = policy.GroupSize(tree, node);
  record->passed_up = policy.config.C(node);
}

}  // namespace pasa
