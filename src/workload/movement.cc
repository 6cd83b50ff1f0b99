#include "workload/movement.h"

#include <cmath>
#include <numbers>

namespace pasa {

std::vector<UserMove> DrawMoves(const LocationDatabase& db,
                                const MapExtent& extent,
                                const MovementOptions& options) {
  Rng rng(options.seed);
  const uint32_t population = static_cast<uint32_t>(db.size());
  const uint32_t movers = static_cast<uint32_t>(
      static_cast<double>(population) * options.moving_fraction);
  std::vector<uint32_t> rows = rng.SampleIndices(population, movers);

  const Rect map = extent.ToRect();
  std::vector<UserMove> moves;
  moves.reserve(rows.size());
  for (const uint32_t row : rows) {
    const Point from = db.row(row).location;
    const double angle = 2.0 * std::numbers::pi * rng.NextDouble();
    const double dist = options.max_distance * rng.NextDouble();
    Coord x = from.x + static_cast<Coord>(std::lround(dist * std::cos(angle)));
    Coord y = from.y + static_cast<Coord>(std::lround(dist * std::sin(angle)));
    x = std::max(map.x1, std::min(map.x2 - 1, x));
    y = std::max(map.y1, std::min(map.y2 - 1, y));
    moves.push_back(UserMove{row, from, Point{x, y}});
  }
  return moves;
}

}  // namespace pasa
