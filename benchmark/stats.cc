#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pasa_bench {

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values->size());
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  if (values.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive", n = 4.
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

}  // namespace pasa_bench
