#include "rank/open_system.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace p2prank::rank {

SolveStats iterate_open_system(const LinkMatrix& A, std::span<const double> forcing,
                               std::vector<double>& ranks, std::vector<double>& next,
                               const SolveOptions& opts, SweepScratch& scratch,
                               util::ThreadPool& pool, WorklistState* frontier) {
  SolveStats stats;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    // Fused sweeps: the L1 residual is accumulated inside the sweep, so
    // there is no second full pass over R per iteration.
    const double delta =
        frontier == nullptr
            ? A.sweep_and_residual(ranks, next, forcing, scratch, pool).l1_delta
            : A.sweep_and_residual_worklist(ranks, next, forcing, scratch, *frontier,
                                            pool)
                  .l1_delta;
    std::swap(ranks, next);
    ++stats.iterations;
    stats.final_delta = delta;
    if (opts.record_residuals) stats.residual_history.push_back(delta);
    if (delta <= opts.epsilon) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

namespace {

/// Shared front end of the allocating solvers: validate sizes, then run the
/// loop on a fresh buffer pair seeded from `initial` (empty = zero vector).
SolveResult solve_from(const LinkMatrix& A, std::span<const double> forcing,
                       std::span<const double> initial, const SolveOptions& opts,
                       util::ThreadPool& pool, WorklistState* frontier) {
  const std::size_t n = A.dimension();
  if (forcing.size() != n) {
    throw std::invalid_argument("solve_open_system: forcing size mismatch");
  }
  if (!initial.empty() && initial.size() != n) {
    throw std::invalid_argument("solve_open_system: initial size mismatch");
  }
  std::vector<double> ranks(initial.begin(), initial.end());
  if (ranks.empty()) ranks.assign(n, 0.0);
  std::vector<double> next(n, 0.0);
  SweepScratch scratch;
  SolveStats stats =
      iterate_open_system(A, forcing, ranks, next, opts, scratch, pool, frontier);
  return {std::move(stats), std::move(ranks)};
}

}  // namespace

SolveResult solve_open_system(const LinkMatrix& A, std::span<const double> forcing,
                              std::span<const double> initial,
                              const SolveOptions& opts, util::ThreadPool& pool) {
  return solve_from(A, forcing, initial, opts, pool, nullptr);
}

SolveResult solve_open_system_worklist(const LinkMatrix& A,
                                       std::span<const double> forcing,
                                       std::span<const double> initial,
                                       const SolveOptions& opts,
                                       WorklistState& state,
                                       util::ThreadPool& pool) {
  return solve_from(A, forcing, initial, opts, pool, &state);
}

SolveResult solve_open_system_uniform(const LinkMatrix& A, double e_value,
                                      const SolveOptions& opts,
                                      util::ThreadPool& pool) {
  // β comes from the matrix's α (the authoritative value) rather than from
  // opts, so a caller cannot desynchronize the two.
  const std::vector<double> forcing(A.dimension(), beta_of(A.alpha()) * e_value);
  return solve_open_system(A, forcing, {}, opts, pool);
}

double theorem33_error_bound(double contraction_norm, double last_delta) noexcept {
  if (contraction_norm >= 1.0) return std::numeric_limits<double>::infinity();
  return contraction_norm / (1.0 - contraction_norm) * last_delta;
}

}  // namespace p2prank::rank
