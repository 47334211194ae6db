// Small statistics helpers used by experiment harnesses and tests: exact
// quantiles over retained samples, L1 norms and the relative error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace p2prank::util {

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
