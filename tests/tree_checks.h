#ifndef PASA_TESTS_TREE_CHECKS_H_
#define PASA_TESTS_TREE_CHECKS_H_

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "index/binary_tree.h"
#include "model/location_database.h"

namespace pasa {
namespace testing_util {

/// Structural checks of a tree against the snapshot it indexes.
template <typename Tree>
void ExpectLeavesPartitionAndCountsConsistent(const Tree& tree,
                                              const LocationDatabase& db) {
  // Every point lies in exactly one leaf, and leaf row lists are a
  // partition of the snapshot.
  std::vector<int> seen(db.size(), 0);
  size_t leaf_total = 0;
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(static_cast<int32_t>(id));
    if constexpr (std::is_same_v<Tree, BinaryTree>) {
      if (!n.live) continue;
    }
    if (!n.IsLeaf()) continue;
    leaf_total += tree.LeafRows(static_cast<int32_t>(id)).size();
    EXPECT_EQ(tree.LeafRows(static_cast<int32_t>(id)).size(), n.count);
    for (const uint32_t row : tree.LeafRows(static_cast<int32_t>(id))) {
      ++seen[row];
      EXPECT_TRUE(n.region.Contains(db.row(row).location));
    }
  }
  EXPECT_EQ(leaf_total, db.size());
  for (const int count : seen) EXPECT_EQ(count, 1);
  // Counts equal linear-scan occupancy for every live node.
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(static_cast<int32_t>(id));
    if constexpr (std::is_same_v<Tree, BinaryTree>) {
      if (!n.live) continue;
    }
    EXPECT_EQ(n.count, db.CountInside(n.region));
  }
}

}  // namespace testing_util
}  // namespace pasa

#endif  // PASA_TESTS_TREE_CHECKS_H_
