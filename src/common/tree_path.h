#ifndef PASA_COMMON_TREE_PATH_H_
#define PASA_COMMON_TREE_PATH_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace pasa {

/// A root-to-node path in a binary tree, packed into one word: the node's
/// turns (0 = first child, 1 = second) are the low depth() bits, the root's
/// turn highest, under a marker bit at position depth(). Depths 0 .. 63 fit,
/// which covers the deepest tree a map of log2 side 31 can grow (62); the
/// all-zero word stands for an unknown path. Rendered as "r.0.1" (see
/// ToString) only when it is read, so holding one allocates nothing.
class TreePath {
 public:
  static constexpr int kMaxDepth = 63;

  /// The unknown path.
  constexpr TreePath() = default;

  /// The path of `depth` turns held in the low bits of `turns`, the first
  /// turn highest; bits above `depth` are ignored. Unknown when `depth` is
  /// negative or deeper than kMaxDepth.
  static constexpr TreePath FromTurns(uint64_t turns, int depth) {
    if (depth < 0 || depth > kMaxDepth) return TreePath();
    const uint64_t marker = uint64_t{1} << depth;
    return TreePath(marker | (turns & (marker - 1)));
  }

  constexpr bool known() const { return code_ != 0; }
  /// Number of turns below the root; -1 for the unknown path.
  constexpr int depth() const { return 63 - std::countl_zero(code_); }
  /// The turns, first turn highest (0 for the root and the unknown path).
  constexpr uint64_t turns() const {
    return known() ? code_ & ~(uint64_t{1} << depth()) : 0;
  }

  /// "r" plus ".0" or ".1" per turn (e.g. "r.0.1"); "" for the unknown
  /// path.
  std::string ToString() const;

  /// Inverse of ToString: "" is the unknown path; anything but "r"
  /// followed by at most kMaxDepth ".0"/".1" turns is InvalidArgument.
  static Result<TreePath> Parse(std::string_view text);

  friend constexpr bool operator==(TreePath a, TreePath b) = default;

 private:
  constexpr explicit TreePath(uint64_t code) : code_(code) {}

  uint64_t code_ = 0;
};

}  // namespace pasa

#endif  // PASA_COMMON_TREE_PATH_H_
