#ifndef PASA_WORKLOAD_MOVEMENT_H_
#define PASA_WORKLOAD_MOVEMENT_H_

#include <vector>

#include "common/rng.h"
#include "index/morton.h"
#include "model/location_database.h"
#include "pasa/incremental.h"

namespace pasa {

/// Snapshot-to-snapshot movement model of Section VI-C: a random subset of
/// distinct users each moves a random distance (bounded by `max_distance`,
/// the paper uses 200 m per 10 s snapshot) in a random direction, clamped to
/// the map.
struct MovementOptions {
  /// Fraction of users that move between snapshots (the Figure 5(b) x-axis).
  double moving_fraction = 0.01;
  double max_distance = 200.0;
  uint64_t seed = 7;
};

/// Draws the moves for one snapshot transition against `db`. Does not modify
/// `db`; ApplyMovesToDatabase or IncrementalAnonymizer::ApplyMoves applies
/// the returned moves to advance the snapshot.
std::vector<UserMove> DrawMoves(const LocationDatabase& db,
                                const MapExtent& extent,
                                const MovementOptions& options);

}  // namespace pasa

#endif  // PASA_WORKLOAD_MOVEMENT_H_
