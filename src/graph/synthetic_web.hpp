// Synthetic web-crawl generator.
//
// The paper's experiments use the Google programming-contest 2002 dataset
// (~1M pages from 100 .edu sites, 15M links of which only 7M point at
// crawled pages). That dataset is not redistributable, so we generate a
// statistically equivalent crawl. Three properties drive the paper's
// results, and all three are explicit knobs here:
//
//  1. link locality       — ~90% of links stay inside their site
//                           (Cho & Garcia-Molina [16]); controls how much a
//                           site-granularity partition reduces cut links;
//  2. internal fraction   — the share of links whose target was actually
//                           crawled (~7/15 for the paper's dataset); controls
//                           how much rank leaks out of the open system and
//                           hence the average-rank plateau of Fig. 7;
//  3. heavy-tailed sizes/degrees — power-law site sizes and in-degrees, as
//                           observed on the real web; controls convergence
//                           behaviour and partition balance.
//
// The crawl is modeled per link: each generated link targets a crawled page
// with probability crawl_fraction and is otherwise recorded as an external
// link (its real-world target exists but was never fetched). Deciding this
// per link pins the internal fraction with binomial concentration at every
// scale, which a sampled fixed uncrawled universe would not (whether a
// site's most popular page landed in the crawl would dominate the ratio).
#pragma once

#include <cstdint>
#include <string>

#include "graph/web_graph.hpp"

namespace p2prank::graph {

struct SyntheticWebConfig {
  std::uint64_t seed = 42;
  std::uint32_t num_sites = 100;
  /// Number of *crawled* pages to aim for (actual count comes out within a
  /// few percent because site sizes are sampled).
  std::uint32_t target_pages = 100'000;
  /// Probability that a link's target was crawled (= expected internal-link
  /// fraction). Lower values push more links external. In (0, 1].
  double crawl_fraction = 0.47;
  /// Probability that a link targets a page of the same site.
  double intra_site_fraction = 0.90;
  /// Mean out-degree of a crawled page (the paper's dataset: 15M/1M = 15).
  double mean_out_degree = 15.0;
  /// Power-law exponent for site sizes (number of pages per site).
  double site_size_exponent = 1.6;
  /// Power-law exponent for target popularity inside a site — smaller
  /// exponent gives a heavier in-degree tail.
  double popularity_exponent = 1.8;
  /// Fraction of crawled pages with zero out-links (dangling pages).
  double dangling_fraction = 0.02;
};

/// Preset matching the Google programming-contest 2002 statistics, scaled to
/// `pages` crawled pages.
[[nodiscard]] SyntheticWebConfig google2002_config(std::uint32_t pages = 100'000,
                                                   std::uint64_t seed = 42);

/// Generate a crawl. Deterministic in cfg.seed. Links are regenerated
/// chunk by chunk on each of GraphBuilder::build_from_stream's two replays
/// instead of being buffered, so peak memory is the CSR plus one chunk
/// rather than the whole edge list, at any scale.
[[nodiscard]] WebGraph generate_synthetic_web(const SyntheticWebConfig& cfg);

/// The same call under its former name, kept for perfbench's `gen`.
[[nodiscard]] WebGraph generate_synthetic_web_streamed(const SyntheticWebConfig& cfg);

}  // namespace p2prank::graph
