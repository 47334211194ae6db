#include "graph/synthetic_web.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/graph_stats.hpp"
#include "util/rng.hpp"

namespace p2prank::graph {
namespace {

TEST(SyntheticWeb, RejectsBadConfigs) {
  SyntheticWebConfig cfg;
  cfg.num_sites = 0;
  EXPECT_THROW(generate_synthetic_web(cfg), std::invalid_argument);

  cfg = {};
  cfg.crawl_fraction = 0.0;
  EXPECT_THROW(generate_synthetic_web(cfg), std::invalid_argument);

  cfg = {};
  cfg.crawl_fraction = 1.5;
  EXPECT_THROW(generate_synthetic_web(cfg), std::invalid_argument);

  cfg = {};
  cfg.intra_site_fraction = -0.1;
  EXPECT_THROW(generate_synthetic_web(cfg), std::invalid_argument);

  cfg = {};
  cfg.site_size_exponent = 1.0;
  EXPECT_THROW(generate_synthetic_web(cfg), std::invalid_argument);

  cfg = {};
  cfg.dangling_fraction = 1.0;
  EXPECT_THROW(generate_synthetic_web(cfg), std::invalid_argument);
}

TEST(SyntheticWeb, DeterministicForSeed) {
  auto cfg = google2002_config(5000, 99);
  const auto g1 = generate_synthetic_web(cfg);
  const auto g2 = generate_synthetic_web(cfg);
  ASSERT_EQ(g1.num_pages(), g2.num_pages());
  EXPECT_EQ(g1.num_links(), g2.num_links());
  EXPECT_EQ(g1.num_external_links(), g2.num_external_links());
  for (PageId p = 0; p < g1.num_pages(); p += 97) {
    EXPECT_EQ(g1.url(p), g2.url(p));
    EXPECT_EQ(g1.out_degree(p), g2.out_degree(p));
  }
}

TEST(SyntheticWeb, StreamedBuildIsBitwiseIdenticalToBuilderPath) {
  // The generator streams its edges through two replays and never buffers
  // them; GraphBuilder::build() fed the same pages, the same links in
  // shuffled order and the same external counts must land on the exact same
  // canonical CSR. Shuffling makes the check fail if either path stops
  // sorting its rows.
  const auto cfg = google2002_config(8000, 17);
  const auto s = generate_synthetic_web(cfg);
  GraphBuilder b;
  std::vector<std::pair<PageId, PageId>> links;
  for (PageId p = 0; p < s.num_pages(); ++p) {
    b.add_page(s.url(p), s.site_name(s.site(p)));
    b.add_external_link(p, s.external_out_degree(p));
    for (const PageId v : s.out_links(p)) links.emplace_back(p, v);
  }
  util::Rng rng(cfg.seed);
  for (std::size_t i = links.size(); i > 1; --i) {
    std::swap(links[i - 1], links[rng.below(i)]);
  }
  for (const auto& [u, v] : links) b.add_link(u, v);
  const auto g = std::move(b).build();

  ASSERT_EQ(s.num_pages(), g.num_pages());
  ASSERT_EQ(s.num_sites(), g.num_sites());
  ASSERT_EQ(s.num_links(), g.num_links());
  ASSERT_EQ(s.num_external_links(), g.num_external_links());
  for (PageId p = 0; p < g.num_pages(); ++p) {
    ASSERT_EQ(s.url(p), g.url(p)) << "page " << p;
    ASSERT_EQ(s.site(p), g.site(p)) << "page " << p;
    ASSERT_EQ(s.external_out_degree(p), g.external_out_degree(p)) << "page " << p;
    const auto out_s = s.out_links(p);
    const auto out_g = g.out_links(p);
    ASSERT_EQ(std::vector<PageId>(out_s.begin(), out_s.end()),
              std::vector<PageId>(out_g.begin(), out_g.end()))
        << "out row " << p;
    const auto in_s = s.in_links(p);
    const auto in_g = g.in_links(p);
    ASSERT_EQ(std::vector<PageId>(in_s.begin(), in_s.end()),
              std::vector<PageId>(in_g.begin(), in_g.end()))
        << "in row " << p;
  }
}

TEST(SyntheticWeb, DifferentSeedsDiffer) {
  const auto g1 = generate_synthetic_web(google2002_config(5000, 1));
  const auto g2 = generate_synthetic_web(google2002_config(5000, 2));
  EXPECT_NE(g1.num_links(), g2.num_links());
}

TEST(SyntheticWeb, PageCountNearTarget) {
  const auto g = generate_synthetic_web(google2002_config(20000, 5));
  EXPECT_GT(g.num_pages(), 18000u);
  EXPECT_LT(g.num_pages(), 22000u);
}

TEST(SyntheticWeb, SiteCountMatchesConfig) {
  const auto g = generate_synthetic_web(google2002_config(20000, 5));
  EXPECT_EQ(g.num_sites(), 100u);
}

class Google2002Stats : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new WebGraph(generate_synthetic_web(google2002_config(50000, 42)));
    stats_ = new GraphStats(compute_stats(*graph_));
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete graph_;
    stats_ = nullptr;
    graph_ = nullptr;
  }
  static WebGraph* graph_;
  static GraphStats* stats_;
};

WebGraph* Google2002Stats::graph_ = nullptr;
GraphStats* Google2002Stats::stats_ = nullptr;

TEST_F(Google2002Stats, InternalLinkFractionNearSevenFifteenths) {
  // The paper's dataset: 7M of 15M links point at crawled pages.
  EXPECT_NEAR(stats_->internal_fraction(), 7.0 / 15.0, 0.06);
}

TEST_F(Google2002Stats, IntraSiteFractionNearNinetyPercent) {
  // [16]: ~90% of links stay within the site.
  EXPECT_NEAR(stats_->intra_site_fraction(), 0.90, 0.05);
}

TEST_F(Google2002Stats, MeanOutDegreeNearFifteen) {
  EXPECT_NEAR(stats_->mean_out_degree, 15.0, 2.5);
}

TEST_F(Google2002Stats, HasDanglingPages) {
  EXPECT_GT(stats_->dangling_pages, 0u);
  EXPECT_LT(static_cast<double>(stats_->dangling_pages),
            0.1 * static_cast<double>(stats_->pages));
}

TEST_F(Google2002Stats, InDegreeIsHeavyTailed) {
  // A heavy-tailed in-degree distribution has a maximum far above the mean.
  const double mean_in = static_cast<double>(stats_->internal_links) /
                         static_cast<double>(stats_->pages);
  EXPECT_GT(stats_->max_in_degree, 20.0 * mean_in);
}

TEST_F(Google2002Stats, SiteSizesAreSkewed) {
  // Largest site should hold far more than the mean share of pages.
  std::size_t largest = 0;
  for (SiteId s = 0; s < graph_->num_sites(); ++s) {
    largest = std::max(largest, graph_->pages_of_site(s).size());
  }
  const double mean_site =
      static_cast<double>(graph_->num_pages()) / static_cast<double>(graph_->num_sites());
  EXPECT_GT(static_cast<double>(largest), 3.0 * mean_site);
}

TEST_F(Google2002Stats, AllLinksHaveValidEndpoints) {
  for (PageId u = 0; u < graph_->num_pages(); ++u) {
    for (const PageId v : graph_->out_links(u)) {
      ASSERT_LT(v, graph_->num_pages());
    }
  }
}

TEST_F(Google2002Stats, InOutAdjacencyAreConsistent) {
  // Every out-edge appears exactly once as an in-edge: totals must match.
  std::size_t in_total = 0;
  std::size_t out_total = 0;
  for (PageId p = 0; p < graph_->num_pages(); ++p) {
    in_total += graph_->in_degree(p);
    out_total += graph_->out_links(p).size();
  }
  EXPECT_EQ(in_total, out_total);
  EXPECT_EQ(in_total, graph_->num_links());
}

struct ScaleParam {
  std::uint32_t pages;
};

class SyntheticScaleSweep : public ::testing::TestWithParam<ScaleParam> {};

TEST_P(SyntheticScaleSweep, StatisticsHoldAcrossScales) {
  const auto g = generate_synthetic_web(google2002_config(GetParam().pages, 7));
  const auto s = compute_stats(g);
  EXPECT_NEAR(s.internal_fraction(), 0.47, 0.08);
  EXPECT_NEAR(s.intra_site_fraction(), 0.90, 0.06);
  EXPECT_GT(s.mean_out_degree, 10.0);
  EXPECT_LT(s.mean_out_degree, 20.0);
}

INSTANTIATE_TEST_SUITE_P(Scales, SyntheticScaleSweep,
                         ::testing::Values(ScaleParam{2000}, ScaleParam{10000},
                                           ScaleParam{40000}),
                         [](const auto& suite_info) {
                           return "pages" + std::to_string(suite_info.param.pages);
                         });

struct LocalityParam {
  double intra;
};

class SyntheticLocalitySweep : public ::testing::TestWithParam<LocalityParam> {};

TEST_P(SyntheticLocalitySweep, IntraSiteKnobIsRespected) {
  auto cfg = google2002_config(20000, 11);
  cfg.intra_site_fraction = GetParam().intra;
  const auto g = generate_synthetic_web(cfg);
  const auto s = compute_stats(g);
  EXPECT_NEAR(s.intra_site_fraction(), GetParam().intra, 0.07);
}

INSTANTIATE_TEST_SUITE_P(Locality, SyntheticLocalitySweep,
                         ::testing::Values(LocalityParam{0.5}, LocalityParam{0.7},
                                           LocalityParam{0.95}),
                         [](const auto& suite_info) {
                           return "intra" +
                                  std::to_string(static_cast<int>(suite_info.param.intra * 100));
                         });

}  // namespace
}  // namespace p2prank::graph
