#include "engine/reference.hpp"

#include <stdexcept>

#include "rank/centralized.hpp"
#include "rank/link_matrix.hpp"
#include "rank/open_system.hpp"
#include "util/stats.hpp"

namespace p2prank::engine {

std::vector<double> open_system_reference(const graph::WebGraph& g, double alpha,
                                          util::ThreadPool& pool, double epsilon,
                                          std::size_t max_iterations) {
  const auto matrix = rank::LinkMatrix::from_graph(g, alpha);
  rank::SolveOptions opts;
  opts.epsilon = epsilon;
  opts.max_iterations = max_iterations;
  auto result = rank::solve_open_system_uniform(matrix, 1.0, opts, pool);
  if (!result.converged) {
    throw std::runtime_error("open_system_reference: did not converge");
  }
  return std::move(result.ranks);
}

std::size_t centralized_iterations_to_error(const graph::WebGraph& g, double alpha,
                                            double threshold,
                                            std::span<const double> reference,
                                            util::ThreadPool& pool,
                                            std::size_t max_iterations) {
  if (reference.size() != g.num_pages()) {
    throw std::invalid_argument("centralized_iterations_to_error: reference size");
  }
  const auto matrix = rank::LinkMatrix::from_graph(g, alpha);
  const std::vector<double> forcing(matrix.dimension(),
                                    rank::beta_of(alpha) * 1.0);
  std::vector<double> ranks(matrix.dimension(), 0.0);
  std::vector<double> next(matrix.dimension(), 0.0);
  rank::SweepScratch scratch;
  const double ref_norm = util::l1_norm(reference);

  for (std::size_t it = 1; it <= max_iterations; ++it) {
    (void)matrix.sweep_and_residual(ranks, next, forcing, scratch, pool);
    std::swap(ranks, next);
    if (util::l1_distance(ranks, reference) <= threshold * ref_norm) return it;
  }
  throw std::runtime_error(
      "centralized_iterations_to_error: threshold not reached within budget");
}

std::vector<double> carry_ranks(const graph::WebGraph& from,
                                std::span<const double> from_ranks,
                                const graph::WebGraph& to) {
  if (from_ranks.size() != from.num_pages()) {
    throw std::invalid_argument("carry_ranks: rank vector size mismatch");
  }
  std::vector<double> out(to.num_pages(), 0.0);
  for (graph::PageId p = 0; p < to.num_pages(); ++p) {
    if (const auto old = from.find(to.url(p))) out[p] = from_ranks[*old];
  }
  return out;
}

std::size_t algorithm1_iterations_to_error(const graph::WebGraph& g, double damping,
                                           double threshold, util::ThreadPool& pool,
                                           std::size_t max_iterations) {
  rank::CentralizedOptions opts;
  opts.damping = damping;
  opts.epsilon = 1e-14;
  opts.max_iterations = max_iterations;
  const auto fixed = rank::centralized_pagerank(g, opts, pool);
  if (!fixed.converged) {
    throw std::runtime_error("algorithm1_iterations_to_error: no fixed point");
  }
  const double ref_norm = util::l1_norm(fixed.ranks);

  std::size_t needed = 0;
  bool reached = false;
  opts.on_iteration = [&](std::span<const double> iterate) {
    ++needed;
    if (util::l1_distance(iterate, fixed.ranks) <= threshold * ref_norm) {
      reached = true;
      return false;  // stop
    }
    return true;
  };
  (void)rank::centralized_pagerank(g, opts, pool);
  if (!reached) {
    throw std::runtime_error(
        "algorithm1_iterations_to_error: threshold not reached within budget");
  }
  return needed;
}

}  // namespace p2prank::engine
