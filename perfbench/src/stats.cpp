#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q*n samples at or below.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double tail_percentile(std::size_t n) {
  for (const double pct : {99.9, 99.0, 90.0}) {
    // Samples strictly beyond the percentile's rank.
    const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 - 1e-9) return pct;
  }
  return 50.0;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = quantile(v, 0.5);
  s.tail_pct = tail_percentile(v.size());
  s.tail = quantile(v, s.tail_pct / 100.0);
  return s;
}

std::string percentile_label(double pct) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", pct);
  return buf;
}

}  // namespace perfbench
