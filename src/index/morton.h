#ifndef PASA_INDEX_MORTON_H_
#define PASA_INDEX_MORTON_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "model/location_database.h"

namespace pasa {

/// Spreads the low 32 bits of x so bit i lands at position 2i: one
/// coordinate's half of an interleaved (Morton) key.
inline uint64_t Part1By1(uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

/// The square, power-of-two-sided region a quad tree partitions ("the map").
/// All quadrants of the static quad-tree partition are addressable as Morton
/// key ranges over this extent.
struct MapExtent {
  Coord origin_x = 0;
  Coord origin_y = 0;
  int log2_side = 0;  ///< side length is 2^log2_side

  Coord side() const { return Coord{1} << log2_side; }
  Rect ToRect() const {
    return Rect{origin_x, origin_y, origin_x + side(), origin_y + side()};
  }
  bool Contains(const Point& p) const { return ToRect().Contains(p); }

  /// Smallest extent anchored at the bounding box's southwest corner whose
  /// power-of-two side covers `bbox`. Fails on an empty box.
  static Result<MapExtent> Covering(const Rect& bbox);
};

/// Address of one quadrant of the static quad-tree partition of a MapExtent:
/// `depth` levels below the root, identified by the Morton prefix of its
/// cells (2 bits per level, child order SW=0, SE=1, NW=2, NE=3).
struct QuadPath {
  uint64_t prefix = 0;
  int depth = 0;  ///< 0 == the whole map

  /// The path of this quadrant's child `q` (0..3).
  QuadPath Child(int q) const {
    return QuadPath{(prefix << 2) | static_cast<uint64_t>(q), depth + 1};
  }

  friend bool operator==(const QuadPath& a, const QuadPath& b) = default;
};

/// Sorted Morton-key index over one location-database snapshot.
///
/// Every quadrant of the static quad tree is a contiguous Morton key range,
/// so `d(m)` (the number of locations inside quadrant m, Definition 7) is two
/// binary searches. Semi-quadrants (Casper / binary-tree cloaks) are one or
/// two ranges. This powers the k-inside baseline policies, which probe
/// arbitrary quadrants of the *static* partition without materializing a
/// tree.
class MortonIndex {
 public:
  /// Builds the index. Every location must lie inside `extent`; returns
  /// InvalidArgument otherwise.
  static Result<MortonIndex> Build(const LocationDatabase& db,
                                   const MapExtent& extent);

  const MapExtent& extent() const { return extent_; }
  /// Maximum quadrant depth (cells of side 1 at this depth).
  int max_depth() const { return extent_.log2_side; }
  size_t size() const { return keys_by_row_.size(); }

  /// Morton key of snapshot row `row`.
  uint64_t KeyOfRow(size_t row) const { return keys_by_row_[row]; }

  /// The quadrant at `depth` containing `p`.
  QuadPath PathForPoint(const Point& p, int depth) const;

  /// Geometric region of a quadrant.
  Rect RegionOf(const QuadPath& path) const;

  /// Number of locations inside the quadrant (d(m)).
  size_t CountQuadrant(const QuadPath& path) const;

  /// Number of locations in the west/east vertical semi-quadrant of `parent`
  /// (the union of its two western or two eastern child quadrants).
  size_t CountVerticalHalf(const QuadPath& parent, bool west) const;

  /// Number of locations in the south/north horizontal semi-quadrant of
  /// `parent`.
  size_t CountHorizontalHalf(const QuadPath& parent, bool south) const;

  /// Region of a vertical/horizontal semi-quadrant of `parent`.
  Rect VerticalHalfRegion(const QuadPath& parent, bool west) const;
  Rect HorizontalHalfRegion(const QuadPath& parent, bool south) const;

  /// Morton key for a point in this extent (exposed for tests).
  uint64_t KeyForPoint(const Point& p) const;

  /// Approximate heap bytes of the two key arrays (memory accounting,
  /// obs/mem.h).
  uint64_t ApproxBytes() const {
    return (static_cast<uint64_t>(sorted_keys_.capacity()) +
            static_cast<uint64_t>(keys_by_row_.capacity())) *
           sizeof(uint64_t);
  }

 private:
  MortonIndex(MapExtent extent, std::vector<uint64_t> sorted_keys,
              std::vector<uint64_t> keys_by_row)
      : extent_(extent),
        sorted_keys_(std::move(sorted_keys)),
        keys_by_row_(std::move(keys_by_row)) {}

  /// Count of keys in [lo, hi).
  size_t CountKeyRange(uint64_t lo, uint64_t hi) const;

  MapExtent extent_;
  std::vector<uint64_t> sorted_keys_;
  std::vector<uint64_t> keys_by_row_;
};

}  // namespace pasa

#endif  // PASA_INDEX_MORTON_H_
