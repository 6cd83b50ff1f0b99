#include "workload/bay_area.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pasa {
namespace {

struct Cluster {
  double cx = 0.0;
  double cy = 0.0;
  double sigma = 0.0;
  double cumulative_weight = 0.0;  // prefix sum for roulette selection
};

// Zipf-weighted Gaussian clusters: a few dominant urban cores and a long
// tail of towns, matching the strong skew of Figure 2's density map.
std::vector<Cluster> MakeClusters(const BayAreaOptions& options, Rng* rng) {
  const double side = static_cast<double>(Coord{1} << options.log2_map_side);
  std::vector<Cluster> clusters(options.num_clusters);
  double total = 0.0;
  for (uint32_t i = 0; i < options.num_clusters; ++i) {
    Cluster& c = clusters[i];
    // Keep centers away from the map border so the Gaussians rarely clamp.
    c.cx = side * (0.1 + 0.8 * rng->NextDouble());
    c.cy = side * (0.1 + 0.8 * rng->NextDouble());
    // Core clusters are tight and heavy; tail clusters wide and light.
    c.sigma = side * (0.01 + 0.05 * rng->NextDouble());
    total += 1.0 / static_cast<double>(i + 1);  // Zipf(1) weight
    c.cumulative_weight = total;
  }
  for (Cluster& c : clusters) c.cumulative_weight /= total;
  return clusters;
}

Coord Clamp(double v, Coord side) {
  if (v < 0.0) return 0;
  if (v >= static_cast<double>(side)) return side - 1;
  return static_cast<Coord>(v);
}

Point SampleAround(double cx, double cy, double sigma, Coord side, Rng* rng) {
  const double x = cx + sigma * rng->NextGaussian();
  const double y = cy + sigma * rng->NextGaussian();
  return Point{Clamp(x, side), Clamp(y, side)};
}

}  // namespace

LocationDatabase BayAreaGenerator::GenerateMaster() const {
  return Generate(static_cast<size_t>(options_.num_intersections) *
                  options_.users_per_intersection);
}

LocationDatabase BayAreaGenerator::Generate(size_t n) const {
  Rng rng(options_.seed);
  const std::vector<Cluster> clusters = MakeClusters(options_, &rng);
  const Coord side = Coord{1} << options_.log2_map_side;

  LocationDatabase db;
  db.Reserve(n);
  UserId next_user = 0;
  size_t produced = 0;
  while (produced < n) {
    // One street intersection: roulette-pick a cluster, place the
    // intersection, then drop a burst of users around it.
    const double roll = rng.NextDouble();
    const Cluster* cluster = &clusters.back();
    for (const Cluster& c : clusters) {
      if (roll <= c.cumulative_weight) {
        cluster = &c;
        break;
      }
    }
    const Point intersection =
        SampleAround(cluster->cx, cluster->cy, cluster->sigma, side, &rng);
    for (uint32_t u = 0; u < options_.users_per_intersection && produced < n;
         ++u, ++produced) {
      db.Add(next_user++,
             SampleAround(static_cast<double>(intersection.x),
                          static_cast<double>(intersection.y),
                          options_.user_sigma, side, &rng));
    }
  }
  return db;
}

LocationDatabase BayAreaGenerator::Sample(const LocationDatabase& master,
                                          size_t n, uint64_t seed) {
  Rng rng(seed);
  const size_t take = std::min(n, master.size());
  std::vector<uint32_t> rows =
      rng.SampleIndices(static_cast<uint32_t>(master.size()),
                        static_cast<uint32_t>(take));
  std::sort(rows.begin(), rows.end());
  LocationDatabase db;
  db.Reserve(rows.size());
  UserId next_user = 0;
  for (const uint32_t row : rows) {
    db.Add(next_user++, master.row(row).location);
  }
  return db;
}

}  // namespace pasa
