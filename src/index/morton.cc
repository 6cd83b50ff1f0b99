#include "index/morton.h"

#include <algorithm>
#include <cassert>

namespace pasa {

Result<MapExtent> MapExtent::Covering(const Rect& bbox) {
  if (bbox.width() <= 0 || bbox.height() <= 0) {
    return Status::InvalidArgument("cannot cover an empty bounding box");
  }
  const Coord need = std::max(bbox.width(), bbox.height());
  int log2_side = 0;
  while ((Coord{1} << log2_side) < need) {
    ++log2_side;
    if (log2_side > 31) {
      return Status::InvalidArgument("bounding box too large for MapExtent");
    }
  }
  return MapExtent{bbox.x1, bbox.y1, log2_side};
}

uint64_t MortonIndex::KeyForPoint(const Point& p) const {
  assert(extent_.Contains(p));
  const uint64_t cx = static_cast<uint64_t>(p.x - extent_.origin_x);
  const uint64_t cy = static_cast<uint64_t>(p.y - extent_.origin_y);
  // y is the high interleaved bit, so child order is SW, SE, NW, NE.
  return (Part1By1(cy) << 1) | Part1By1(cx);
}

Result<MortonIndex> MortonIndex::Build(const LocationDatabase& db,
                                       const MapExtent& extent) {
  std::vector<uint64_t> keys_by_row(db.size());
  MortonIndex tmp(extent, {}, {});
  for (size_t i = 0; i < db.size(); ++i) {
    const Point& p = db.row(i).location;
    if (!extent.Contains(p)) {
      return Status::InvalidArgument("location " + p.ToString() +
                                     " outside map extent");
    }
    keys_by_row[i] = tmp.KeyForPoint(p);
  }
  std::vector<uint64_t> sorted_keys = keys_by_row;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  return MortonIndex(extent, std::move(sorted_keys), std::move(keys_by_row));
}

QuadPath MortonIndex::PathForPoint(const Point& p, int depth) const {
  assert(depth >= 0 && depth <= max_depth());
  const uint64_t key = KeyForPoint(p);
  return QuadPath{key >> (2 * (max_depth() - depth)), depth};
}

Rect MortonIndex::RegionOf(const QuadPath& path) const {
  assert(path.depth >= 0 && path.depth <= max_depth());
  // De-interleave the prefix back into quadrant grid coordinates.
  uint64_t qx = 0, qy = 0;
  for (int i = 0; i < path.depth; ++i) {
    const uint64_t bits = (path.prefix >> (2 * (path.depth - 1 - i))) & 3;
    qx = (qx << 1) | (bits & 1);
    qy = (qy << 1) | (bits >> 1);
  }
  const Coord side = extent_.side() >> path.depth;
  const Coord x1 = extent_.origin_x + static_cast<Coord>(qx) * side;
  const Coord y1 = extent_.origin_y + static_cast<Coord>(qy) * side;
  return Rect{x1, y1, x1 + side, y1 + side};
}

size_t MortonIndex::CountKeyRange(uint64_t lo, uint64_t hi) const {
  const auto begin =
      std::lower_bound(sorted_keys_.begin(), sorted_keys_.end(), lo);
  const auto end = std::lower_bound(begin, sorted_keys_.end(), hi);
  return static_cast<size_t>(end - begin);
}

size_t MortonIndex::CountQuadrant(const QuadPath& path) const {
  const int shift = 2 * (max_depth() - path.depth);
  const uint64_t lo = path.prefix << shift;
  const uint64_t hi = (path.prefix + 1) << shift;
  return CountKeyRange(lo, hi);
}

size_t MortonIndex::CountVerticalHalf(const QuadPath& parent,
                                      bool west) const {
  // West = SW(0) + NW(2); East = SE(1) + NE(3). Non-contiguous: two ranges.
  const int lo_child = west ? 0 : 1;
  const int hi_child = west ? 2 : 3;
  return CountQuadrant(parent.Child(lo_child)) +
         CountQuadrant(parent.Child(hi_child));
}

size_t MortonIndex::CountHorizontalHalf(const QuadPath& parent,
                                        bool south) const {
  // South = SW(0) + SE(1); North = NW(2) + NE(3). Contiguous ranges, but the
  // two-count formulation keeps the code uniform.
  const int lo_child = south ? 0 : 2;
  const int hi_child = south ? 1 : 3;
  return CountQuadrant(parent.Child(lo_child)) +
         CountQuadrant(parent.Child(hi_child));
}

Rect MortonIndex::VerticalHalfRegion(const QuadPath& parent, bool west) const {
  const Rect r = RegionOf(parent);
  return west ? r.WestHalf() : r.EastHalf();
}

Rect MortonIndex::HorizontalHalfRegion(const QuadPath& parent,
                                       bool south) const {
  const Rect r = RegionOf(parent);
  return south ? r.SouthHalf() : r.NorthHalf();
}

}  // namespace pasa
