#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace p2prank::util {

void OnlineStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const noexcept {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

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
