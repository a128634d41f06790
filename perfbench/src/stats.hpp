// Order statistics for the benchmark's timing samples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `v` (0 <= q <= 1); 0 for an empty sample.
/// Sorts its argument.
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest tail percentile with at least ten samples beyond it, picked
/// from the ladder 99.9 / 99 / 90 / 50: n = 1000 gives 99, n = 10000 gives
/// 99.9. Samples too few for p90 report the median.
double tail_percentile(std::size_t n);

/// A timing series as the benchmark reports it: count, median and the tail
/// percentile tail_percentile(n) chooses.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& v);

/// "p99", "p99.9", ...: the label of a tail percentile.
std::string percentile_label(double pct);

}  // namespace perfbench
