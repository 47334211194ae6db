// Centralized reference computations the experiments compare against:
//   * the open-system fixed point R* on the whole crawl ("centralized
//     PageRank performed on all the page groups", Section 5) — the target
//     distributed ranking must converge to;
//   * CPR iteration counts for the Fig. 8 comparison.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/web_graph.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {

/// Solve R = A·R + βE (E = 1) over the full crawl to (at least) `epsilon`.
/// Throws if it fails to converge within max_iterations.
[[nodiscard]] std::vector<double> open_system_reference(const graph::WebGraph& g,
                                                        double alpha,
                                                        util::ThreadPool& pool,
                                                        double epsilon = 1e-12,
                                                        std::size_t max_iterations = 2000);

/// Number of iterations the centralized open-system power iteration needs,
/// starting from R = 0, until ||R_i - R*|| / ||R*|| <= threshold. This is
/// the "CPR" series of Fig. 8 (whose iteration count is independent of the
/// number of page rankers).
[[nodiscard]] std::size_t centralized_iterations_to_error(
    const graph::WebGraph& g, double alpha, double threshold,
    std::span<const double> reference, util::ThreadPool& pool,
    std::size_t max_iterations = 2000);

/// Map ranks computed on one crawl snapshot onto another: pages present in
/// both (matched by URL) keep their rank; pages new to `to` start at 0 (the
/// theorems' safe initial value). Feed the result to
/// DistributedRanking::warm_start after a re-crawl.
[[nodiscard]] std::vector<double> carry_ranks(const graph::WebGraph& from,
                                              std::span<const double> from_ranks,
                                              const graph::WebGraph& to);

/// Iterations classic *closed-system* PageRank (Algorithm 1, damping c,
/// renormalizing E reinjection) needs to get within `threshold` relative
/// error of its own fixed point. This is what the paper's Fig. 8 labels
/// "CPR": the Google-style algorithm, which keeps total rank mass at 1 and
/// therefore contracts at ~c per step — slower than the open system, whose
/// external leak shrinks the effective contraction. That gap is exactly why
/// the paper observes DPR1 needing fewer iterations than CPR.
[[nodiscard]] std::size_t algorithm1_iterations_to_error(
    const graph::WebGraph& g, double damping, double threshold,
    util::ThreadPool& pool, std::size_t max_iterations = 2000);

}  // namespace p2prank::engine
