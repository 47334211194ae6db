#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace p2prank::util {

double quantile(std::span<const double> samples, double q) {
  if (samples.empty()) return 0.0;
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks (type-7 quantile).
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double accurate_sum(std::span<const double> values) noexcept {
  long double acc = 0.0L;
  for (const double v : values) acc += v;
  return static_cast<double>(acc);
}

double l1_norm(std::span<const double> v) noexcept {
  long double acc = 0.0L;
  for (const double x : v) acc += std::fabs(x);
  return static_cast<double>(acc);
}

double l1_distance(std::span<const double> a, std::span<const double> b) noexcept {
  assert(a.size() == b.size());
  long double acc = 0.0L;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return static_cast<double>(acc);
}

double relative_error(std::span<const double> a, std::span<const double> b) noexcept {
  return relative_error(a, b, l1_norm(b));
}

double relative_error(std::span<const double> a, std::span<const double> b,
                      double b_l1) noexcept {
  const double num = l1_distance(a, b);
  if (b_l1 == 0.0) return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return num / b_l1;
}

}  // namespace p2prank::util
