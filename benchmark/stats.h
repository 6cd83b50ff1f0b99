#ifndef PASA_BENCHMARK_STATS_H_
#define PASA_BENCHMARK_STATS_H_

#include <map>
#include <string>
#include <vector>

namespace pasa_bench {

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run, by name.
using MetricMap = std::map<std::string, Metric>;

/// Nearest-rank percentile (q in (0, 1]) of `values`, reordering them.
/// Failed requests are +inf and sort last. NaN when `values` is empty.
double Percentile(std::vector<double>* values, double q);

/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& values);

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads this tool prints match the ones computed in Python. One
/// value is its own quartiles; NaN when empty.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_STATS_H_
