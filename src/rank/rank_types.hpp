// Shared options/result types for the ranking solvers.
#pragma once

#include <cstddef>
#include <vector>

namespace p2prank::rank {

/// Options for the open-system (Algorithm 2) solvers. They take α from the
/// LinkMatrix, which is built with it.
struct SolveOptions {
  /// Termination: stop when the L1 change between successive iterates drops
  /// to or below epsilon (Theorem 3.3 justifies this test).
  double epsilon = 1e-10;
  std::size_t max_iterations = 1000;
  /// Record ||R_{i+1} - R_i||_1 after each iteration into
  /// SolveResult::residual_history (costs one vector read per iteration).
  bool record_residuals = false;
};

/// How a solve loop ran; the iterate itself lives in the caller's buffer.
struct SolveStats {
  std::size_t iterations = 0;
  double final_delta = 0.0;  ///< last ||R_{i+1} - R_i||_1
  bool converged = false;
  std::vector<double> residual_history;  ///< filled iff record_residuals
};

struct SolveResult : SolveStats {
  std::vector<double> ranks;
};

[[nodiscard]] constexpr double beta_of(double alpha) noexcept { return 1.0 - alpha; }

}  // namespace p2prank::rank
