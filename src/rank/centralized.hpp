// Classic centralized PageRank — Algorithm 1 of the paper (the Page/Brin
// formulation): power iteration on R = c·A·R with the norm lost to damping
// and dangling pages reinjected through E each step. Included both as the
// historical baseline (the "CPR" series of Fig. 8 compares against it) and
// for closed-system use cases where ranks should stay a distribution.
#pragma once

#include <functional>
#include <span>

#include "graph/web_graph.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {

struct CentralizedOptions {
  double damping = 0.85;  ///< the c of formula 2.1
  double epsilon = 1e-10;
  std::size_t max_iterations = 1000;
  bool record_residuals = false;
  /// Invoked with the iterate after every iteration; return false to stop
  /// early (used to count iterations until some external criterion).
  std::function<bool(std::span<const double>)> on_iteration;
};

/// Run Algorithm 1 with the uniform E = 1/n. The returned ranks sum to 1.
[[nodiscard]] SolveResult centralized_pagerank(const graph::WebGraph& g,
                                               const CentralizedOptions& opts,
                                               util::ThreadPool& pool);

/// Pages sorted by descending rank; ties by ascending PageId. Returns the
/// first k indices (or all when k >= n).
[[nodiscard]] std::vector<graph::PageId> top_pages(std::span<const double> ranks,
                                                   std::size_t k);

}  // namespace p2prank::rank
