// Small statistics helpers used by experiment harnesses and tests:
// streaming mean/variance (Welford), min/max tracking, and exact quantiles
// over retained samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace p2prank::util {

/// Streaming mean / variance / extrema (Welford's algorithm). O(1) memory.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact quantile of a sample set; q in [0,1]. Copies + sorts (fine for the
/// per-experiment sample counts we use). Empty input returns 0.
[[nodiscard]] double quantile(std::span<const double> samples, double q);

/// Sum in long double for better accuracy, returned as double.
[[nodiscard]] double accurate_sum(std::span<const double> values) noexcept;

/// L1 norm of a vector.
[[nodiscard]] double l1_norm(std::span<const double> v) noexcept;

/// L1 norm of (a - b). Requires a.size() == b.size().
[[nodiscard]] double l1_distance(std::span<const double> a,
                                 std::span<const double> b) noexcept;

/// Relative error ||a - b||_1 / ||b||_1 (the paper's Fig. 6 metric, with b
/// the centralized reference). Returns 0 when both are zero vectors.
[[nodiscard]] double relative_error(std::span<const double> a,
                                    std::span<const double> b) noexcept;

/// The same, given b_l1 == l1_norm(b): for a b that many vectors are
/// compared against, its norm is summed once.
[[nodiscard]] double relative_error(std::span<const double> a,
                                    std::span<const double> b, double b_l1) noexcept;

}  // namespace p2prank::util
