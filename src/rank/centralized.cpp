#include "rank/centralized.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"

namespace p2prank::rank {

SolveResult centralized_pagerank(const graph::WebGraph& g,
                                 const CentralizedOptions& opts,
                                 util::ThreadPool& pool,
                                 std::span<const double> personalization) {
  const std::size_t n = g.num_pages();
  if (n == 0) return {};
  if (!(opts.damping > 0.0 && opts.damping < 1.0)) {
    throw std::invalid_argument("centralized_pagerank: damping must be in (0,1)");
  }
  if (!personalization.empty() && personalization.size() != n) {
    throw std::invalid_argument("centralized_pagerank: personalization size mismatch");
  }

  // E normalized to a probability vector.
  std::vector<double> e(n, 1.0 / static_cast<double>(n));
  if (!personalization.empty()) {
    const double sum = util::accurate_sum(personalization);
    if (sum <= 0.0) {
      throw std::invalid_argument("centralized_pagerank: personalization must sum > 0");
    }
    for (std::size_t i = 0; i < n; ++i) e[i] = personalization[i] / sum;
  }

  // Precompute c / d(u). Algorithm 1 builds its matrix from the crawled
  // collection only, so d(u) counts links *within* the crawl.
  std::vector<double> push_weight(n, 0.0);
  for (graph::PageId u = 0; u < n; ++u) {
    const std::size_t d = g.out_links(u).size();
    if (d > 0) push_weight[u] = opts.damping / static_cast<double>(d);
  }

  SolveResult result;
  result.ranks = e;  // R0 = S: start from the normalized source vector
  std::vector<double> next(n, 0.0);

  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    // next = c·A·R (pull over in-links; row-parallel).
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        double acc = 0.0;
        for (const graph::PageId u : g.in_links(static_cast<graph::PageId>(v))) {
          acc += result.ranks[u] * push_weight[u];
        }
        next[v] = acc;
      }
    });
    // D = ||R_i||_1 - ||R_{i+1}||_1, reinjected via E (Algorithm 1's dE).
    const double lost = util::l1_norm(result.ranks) - util::l1_norm(next);
    for (std::size_t v = 0; v < n; ++v) next[v] += lost * e[v];

    const double delta = util::l1_distance(next, result.ranks);
    std::swap(result.ranks, next);
    ++result.iterations;
    result.final_delta = delta;
    if (opts.record_residuals) result.residual_history.push_back(delta);
    if (opts.on_iteration && !opts.on_iteration(result.ranks)) break;
    if (delta <= opts.epsilon) {
      result.converged = true;
      break;
    }
  }
  return result;
}

std::vector<graph::PageId> top_pages(std::span<const double> ranks, std::size_t k) {
  std::vector<graph::PageId> order(ranks.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](graph::PageId a, graph::PageId b) {
                      if (ranks[a] != ranks[b]) return ranks[a] > ranks[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

}  // namespace p2prank::rank
