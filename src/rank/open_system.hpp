// GroupPageRank — Algorithm 2 of the paper: solve the open-system fixed
// point R = A·R + βE + X for one page group, where X is rank flowing in over
// afferent links and βE is the virtual-link rank source.
//
// Convergence is unconditional: the paper's Theorems 3.1–3.3 apply because
// ||A||_∞ ≤ α < 1 (see LinkMatrix::contraction_norm), and Theorem 3.3 makes
// ||R_{i+1} − R_i||_1 a sound termination test with a computable error bound.
#pragma once

#include <span>
#include <vector>

#include "rank/link_matrix.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {

/// The one Jacobi loop behind every open-system solve: iterate
/// ranks ← A·ranks + forcing (`forcing` is βE + X, composed by the caller)
/// until the L1 delta is <= opts.epsilon or max_iterations is hit. It
/// iterates in place on the caller's buffer pair: the iterate is in `ranks`
/// on entry and on return, `next` (same size) is the sweep target, and the
/// two are swapped after every sweep.
///
/// With `frontier` null every sweep is the dense fused kernel. Otherwise it
/// is the worklist kernel, carrying `*frontier` across sweeps — and across
/// calls, while the caller keeps the same buffer pair. The two kernels give
/// bitwise the same iterates and residuals, so the loop stops at the same
/// sweep either way.
[[nodiscard]] SolveStats iterate_open_system(const LinkMatrix& A,
                                             std::span<const double> forcing,
                                             std::vector<double>& ranks,
                                             std::vector<double>& next,
                                             const SolveOptions& opts,
                                             SweepScratch& scratch,
                                             util::ThreadPool& pool,
                                             WorklistState* frontier);

/// Solve R = A·R + forcing from the given initial vector, iterating until
/// the L1 delta is <= opts.epsilon or max_iterations is hit. `initial` may
/// be empty (treated as the zero vector).
[[nodiscard]] SolveResult solve_open_system(const LinkMatrix& A,
                                            std::span<const double> forcing,
                                            std::span<const double> initial,
                                            const SolveOptions& opts,
                                            util::ThreadPool& pool);

/// Worklist variant of solve_open_system: iterates with the residual-driven
/// frontier kernel, carrying `state` across sweeps. The iterate sequence is
/// bitwise-identical to solve_open_system.
[[nodiscard]] SolveResult solve_open_system_worklist(
    const LinkMatrix& A, std::span<const double> forcing,
    std::span<const double> initial, const SolveOptions& opts,
    WorklistState& state, util::ThreadPool& pool);

/// Convenience: uniform forcing βE with E(v) = e_value for all v, X = 0 —
/// the whole-crawl "centralized open-system" reference of Section 5 (what
/// distributed ranking must converge to).
[[nodiscard]] SolveResult solve_open_system_uniform(const LinkMatrix& A,
                                                    double e_value,
                                                    const SolveOptions& opts,
                                                    util::ThreadPool& pool);

/// A-priori error bound from Theorem 3.3: ||x* − x_m|| ≤ q/(1−q)·||x_m −
/// x_{m−1}|| with q = contraction norm. Returns that bound for a given
/// last delta.
[[nodiscard]] double theorem33_error_bound(double contraction_norm,
                                           double last_delta) noexcept;

}  // namespace p2prank::rank
