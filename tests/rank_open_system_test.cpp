#include "rank/open_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/synthetic_web.hpp"
#include "rank/link_matrix.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {
namespace {

constexpr double kAlpha = 0.85;
constexpr double kBeta = 1.0 - kAlpha;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

SolveOptions tight_opts() {
  SolveOptions o;
  o.epsilon = 1e-14;
  o.max_iterations = 3000;
  return o;
}

TEST(OpenSystem, TwoCycleFixedPointIsOne) {
  // R = beta + alpha * R  =>  R = 1 for both pages.
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto r = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.ranks[0], 1.0, 1e-10);
  EXPECT_NEAR(r.ranks[1], 1.0, 1e-10);
}

TEST(OpenSystem, StarClosedForm) {
  // Leaves: R = beta. Hub: R = beta + 3 * alpha * beta.
  const auto g = test::star(3);
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto r = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  ASSERT_TRUE(r.converged);
  const auto hub = *g.find("s.edu/hub");
  EXPECT_NEAR(r.ranks[hub], kBeta + 3.0 * kAlpha * kBeta, 1e-10);
  for (std::size_t v = 0; v < r.ranks.size(); ++v) {
    if (v != hub) {
      EXPECT_NEAR(r.ranks[v], kBeta, 1e-10);
    }
  }
}

TEST(OpenSystem, ChainClosedForm) {
  // R(a_i) = beta * (1 + alpha + ... + alpha^i).
  const auto g = test::chain(5);
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto r = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  ASSERT_TRUE(r.converged);
  double expected = kBeta;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(r.ranks[i], expected, 1e-10) << i;
    expected = kBeta + kAlpha * expected;
  }
}

TEST(OpenSystem, LeakyPairLosesRank) {
  // a: beta (no in-links). b: beta + alpha/2 * beta (half of a's rank leaks).
  const auto g = test::leaky_pair();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto r = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  const auto a = *g.find("s.edu/a");
  const auto b = *g.find("s.edu/b");
  EXPECT_NEAR(r.ranks[a], kBeta, 1e-12);
  EXPECT_NEAR(r.ranks[b], kBeta + kAlpha / 2.0 * kBeta, 1e-12);
}

TEST(OpenSystem, ForcingShiftsFixedPoint) {
  // Adding afferent rank X to a page raises its rank by X plus propagation.
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  std::vector<double> forcing{kBeta + 0.5, kBeta};  // X(a) = 0.5
  const auto r = solve_open_system(m, forcing, {}, tight_opts(), pool());
  ASSERT_TRUE(r.converged);
  // Closed form: r0 = beta + 0.5 + alpha*r1, r1 = beta + alpha*r0.
  const double r0 = (kBeta + 0.5 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  const double r1 = kBeta + kAlpha * r0;
  EXPECT_NEAR(r.ranks[0], r0, 1e-10);
  EXPECT_NEAR(r.ranks[1], r1, 1e-10);
}

TEST(OpenSystem, WarmStartFromFixedPointConvergesInstantly) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto first = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  const std::vector<double> forcing(m.dimension(), kBeta);
  const auto second =
      solve_open_system(m, forcing, first.ranks, tight_opts(), pool());
  EXPECT_LE(second.iterations, 2u);
}

TEST(OpenSystem, RejectsSizeMismatches) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const std::vector<double> bad(3, 0.0);
  EXPECT_THROW((void)solve_open_system(m, bad, {}, tight_opts(), pool()),
               std::invalid_argument);
  const std::vector<double> forcing(2, kBeta);
  EXPECT_THROW((void)solve_open_system(m, forcing, bad, tight_opts(), pool()),
               std::invalid_argument);
}

TEST(OpenSystem, ResidualHistoryIsRecordedAndDecreasing) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(3000, 5));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  auto opts = tight_opts();
  opts.record_residuals = true;
  const auto r = solve_open_system_uniform(m, 1.0, opts, pool());
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.residual_history.size(), r.iterations);
  // Residuals of a contraction shrink geometrically (allow tiny noise).
  for (std::size_t i = 3; i < r.residual_history.size(); ++i) {
    EXPECT_LT(r.residual_history[i], r.residual_history[i - 1] * 1.0001) << i;
  }
}

TEST(OpenSystem, ResidualContractionBoundedByNorm) {
  // ||r_{i+1} - r_i|| <= q * ||r_i - r_{i-1}|| with q = contraction norm.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 8));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  auto opts = tight_opts();
  opts.record_residuals = true;
  const auto r = solve_open_system_uniform(m, 1.0, opts, pool());
  const double q = m.contraction_norm();
  for (std::size_t i = 1; i < r.residual_history.size(); ++i) {
    EXPECT_LE(r.residual_history[i], q * r.residual_history[i - 1] + 1e-12) << i;
  }
}

TEST(OpenSystem, Theorem33BoundHolds) {
  // ||x* - x_m|| <= q/(1-q) ||x_m - x_{m-1}||.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 9));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  // Reference: very tight solve.
  const auto exact = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  // Loose solve.
  SolveOptions loose = tight_opts();
  loose.epsilon = 1e-4;
  const auto approx = solve_open_system_uniform(m, 1.0, loose, pool());
  const double bound =
      theorem33_error_bound(m.contraction_norm(), approx.final_delta);
  EXPECT_LE(util::l1_distance(approx.ranks, exact.ranks), bound * 1.001);
}

TEST(OpenSystem, Theorem33BoundInfiniteAtNormOne) {
  EXPECT_TRUE(std::isinf(theorem33_error_bound(1.0, 0.5)));
}

TEST(OpenSystem, RanksAreNonNegative) {
  // Lemma 1: A >= 0, f >= 0, ||A|| < 1  =>  r >= 0.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(5000, 13));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto r = solve_open_system_uniform(m, 1.0, tight_opts(), pool());
  for (const double x : r.ranks) ASSERT_GE(x, 0.0);
}

TEST(OpenSystem, MonotoneInForcing) {
  // Lemma 2: f1 >= f2 => r1 >= r2.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 21));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  std::vector<double> f1(m.dimension(), kBeta);
  std::vector<double> f2(m.dimension(), kBeta);
  util::Rng rng(17);
  for (auto& x : f1) x += rng.uniform() * 0.3;  // f1 >= f2 everywhere
  const auto r1 = solve_open_system(m, f1, {}, tight_opts(), pool());
  const auto r2 = solve_open_system(m, f2, {}, tight_opts(), pool());
  for (std::size_t i = 0; i < r1.ranks.size(); ++i) {
    ASSERT_GE(r1.ranks[i], r2.ranks[i] - 1e-12) << i;
  }
}

struct AlphaParam {
  double alpha;
};

class AlphaSweep : public ::testing::TestWithParam<AlphaParam> {};

TEST_P(AlphaSweep, ConvergesForAllAlpha) {
  // Theorem 3.1/3.2: ||A|| <= alpha < 1 guarantees convergence at any alpha.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 31));
  const auto m = LinkMatrix::from_graph(g, GetParam().alpha);
  SolveOptions opts;
  opts.epsilon = 1e-12;
  opts.max_iterations = 5000;
  const auto r = solve_open_system_uniform(m, 1.0, opts, pool());
  EXPECT_TRUE(r.converged) << "alpha=" << GetParam().alpha;
}

TEST_P(AlphaSweep, HigherAlphaNeedsMoreIterations) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 31));
  SolveOptions opts;
  opts.epsilon = 1e-10;
  opts.max_iterations = 5000;
  const auto lo = solve_open_system_uniform(LinkMatrix::from_graph(g, 0.5), 1.0,
                                            opts, pool());
  const auto hi = solve_open_system_uniform(
      LinkMatrix::from_graph(g, GetParam().alpha), 1.0, opts, pool());
  if (GetParam().alpha > 0.5) {
    EXPECT_GE(hi.iterations, lo.iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(AlphaParam{0.5}, AlphaParam{0.85},
                                           AlphaParam{0.95}, AlphaParam{0.99}),
                         [](const auto& suite_info) {
                           return "a" + std::to_string(
                                            static_cast<int>(suite_info.param.alpha * 100));
                         });

}  // namespace
}  // namespace p2prank::rank
