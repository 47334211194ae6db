#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace p2prank::util {
namespace {

TEST(Quantile, EmptyIsZero) { EXPECT_EQ(quantile({}, 0.5), 0.0); }

TEST(Quantile, MedianOfOddSet) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Quantile, Extremes) {
  const std::vector<double> v{4.0, 2.0, 8.0, 6.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 8.0);
}

TEST(Quantile, InterpolatesBetweenRanks) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Norms, L1Norm) {
  const std::vector<double> v{1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(l1_norm(v), 6.0);
}

TEST(Norms, L1Distance) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{0.0, 4.0, 3.0};
  EXPECT_DOUBLE_EQ(l1_distance(a, b), 3.0);
}

TEST(Norms, AccurateSumHandlesManySmallTerms) {
  const std::vector<double> v(1000000, 1e-6);
  EXPECT_NEAR(accurate_sum(v), 1.0, 1e-9);
}

TEST(RelativeError, ZeroWhenEqual) {
  const std::vector<double> a{1.0, 2.0};
  EXPECT_DOUBLE_EQ(relative_error(a, a), 0.0);
}

TEST(RelativeError, MatchesDefinition) {
  const std::vector<double> a{1.0, 1.0};
  const std::vector<double> b{2.0, 2.0};
  EXPECT_DOUBLE_EQ(relative_error(a, b), 0.5);  // ||a-b|| / ||b|| = 2/4
}

TEST(RelativeError, BothZeroVectorsIsZero) {
  const std::vector<double> z{0.0, 0.0};
  EXPECT_DOUBLE_EQ(relative_error(z, z), 0.0);
}

TEST(RelativeError, InfiniteAgainstZeroReference) {
  const std::vector<double> a{1.0};
  const std::vector<double> z{0.0};
  EXPECT_TRUE(std::isinf(relative_error(a, z)));
}

}  // namespace
}  // namespace p2prank::util
