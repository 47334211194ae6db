#include "graph/synthetic_web.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "util/rng.hpp"

namespace p2prank::graph {

namespace {

void validate(const SyntheticWebConfig& cfg) {
  if (cfg.num_sites == 0) throw std::invalid_argument("synthetic web: num_sites == 0");
  if (cfg.target_pages == 0) throw std::invalid_argument("synthetic web: target_pages == 0");
  if (!(cfg.crawl_fraction > 0.0 && cfg.crawl_fraction <= 1.0)) {
    throw std::invalid_argument("synthetic web: crawl_fraction out of (0,1]");
  }
  if (!(cfg.intra_site_fraction >= 0.0 && cfg.intra_site_fraction <= 1.0)) {
    throw std::invalid_argument("synthetic web: intra_site_fraction out of [0,1]");
  }
  if (cfg.mean_out_degree < 0.0) {
    throw std::invalid_argument("synthetic web: negative mean_out_degree");
  }
  if (cfg.site_size_exponent <= 1.0 || cfg.popularity_exponent <= 1.0) {
    throw std::invalid_argument("synthetic web: power-law exponents must exceed 1");
  }
  if (!(cfg.dangling_fraction >= 0.0 && cfg.dangling_fraction < 1.0)) {
    throw std::invalid_argument("synthetic web: dangling_fraction out of [0,1)");
  }
}

std::string site_name_of(std::uint32_t s) {
  return "site" + std::to_string(s) + ".edu";
}

std::string url_of(const std::string& site_name, std::uint32_t j) {
  return site_name + "/page" + std::to_string(j) + ".html";
}

// --- Site universes -------------------------------------------------------
// Sample relative site sizes from a power law, then scale so that the
// crawled total lands near target_pages. Consumes cfg.num_sites draws from
// `rng`; each edge replay repeats this to restore the RNG stream position
// before re-emitting links.
std::vector<std::uint32_t> draw_site_sizes(const SyntheticWebConfig& cfg,
                                           util::Rng& rng) {
  const std::uint32_t sites = cfg.num_sites;
  std::vector<double> raw_sizes(sites);
  double raw_total = 0.0;
  for (auto& s : raw_sizes) {
    s = static_cast<double>(rng.power_law(cfg.site_size_exponent, 1000));
    raw_total += s;
  }
  std::vector<std::uint32_t> crawled_size(sites);  // crawled pages per site
  for (std::uint32_t s = 0; s < sites; ++s) {
    const double share = raw_sizes[s] / raw_total;
    auto csize = static_cast<std::uint32_t>(
        std::lround(share * static_cast<double>(cfg.target_pages)));
    crawled_size[s] = std::max<std::uint32_t>(csize, 1);
  }
  return crawled_size;
}

constexpr double kDegExponent = 2.5;
constexpr std::uint64_t kDegCap = 400;

// Empirical mean of the degree sampler, estimated once for normalization.
double degree_scale(const SyntheticWebConfig& cfg) {
  if (cfg.mean_out_degree <= 0.0) return 0.0;
  util::Rng probe(cfg.seed ^ 0x5bd1e995u);
  constexpr int kProbes = 20000;
  double sampler_mean = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    sampler_mean += static_cast<double>(probe.power_law(kDegExponent, kDegCap));
  }
  sampler_mean /= kProbes;
  return cfg.mean_out_degree / sampler_mean;
}

// --- Links ----------------------------------------------------------------
// For every crawled page draw an out-degree (power-law tail rescaled to
// the requested mean), then draw each target in three steps:
//   1. site: same site w.p. intra_site_fraction, else a uniformly random
//      other site;
//   2. crawled?: w.p. crawl_fraction the target was crawled — deciding
//      this per *link* (rather than sampling a fixed uncrawled universe)
//      pins the internal-link fraction to crawl_fraction with binomial
//      concentration even at small scales;
//   3. which page: power-law skew toward low crawled indices (popular
//      pages), producing the heavy in-degree tail of the real web.
// Uncrawled targets become external links. `rng` continues the stream that
// draw_site_sizes started; the PageId of crawled index (s, j) is
// page_prefix[s] + j because the builder interns pages in that order.
template <typename LinkFn, typename ExtFn>
void emit_links(const SyntheticWebConfig& cfg,
                const std::vector<std::uint32_t>& crawled_size,
                const std::vector<PageId>& page_prefix, double deg_scale,
                util::Rng& rng, const LinkFn& link, const ExtFn& external) {
  const std::uint32_t sites = cfg.num_sites;
  for (std::uint32_t s = 0; s < sites; ++s) {
    for (std::uint32_t j = 0; j < crawled_size[s]; ++j) {
      const PageId from = page_prefix[s] + j;
      if (cfg.dangling_fraction > 0.0 && rng.chance(cfg.dangling_fraction)) {
        continue;  // dangling page: no out-links at all
      }
      if (cfg.mean_out_degree <= 0.0) continue;
      const double want =
          deg_scale * static_cast<double>(rng.power_law(kDegExponent, kDegCap));
      const auto degree = static_cast<std::uint32_t>(std::max(1.0, std::round(want)));

      for (std::uint32_t k = 0; k < degree; ++k) {
        if (!rng.chance(cfg.crawl_fraction)) {
          external(from);
          continue;
        }
        std::uint32_t target_site = s;
        if (sites > 1 && !rng.chance(cfg.intra_site_fraction)) {
          // Uniform over the other sites.
          target_site = static_cast<std::uint32_t>(rng.below(sites - 1));
          if (target_site >= s) ++target_site;
        }
        const std::uint32_t csize = crawled_size[target_site];
        const auto target_idx = static_cast<std::uint32_t>(
            rng.power_law(cfg.popularity_exponent, csize) - 1);
        link(from, page_prefix[target_site] + target_idx);
      }
    }
  }
}

std::vector<PageId> prefix_of(const std::vector<std::uint32_t>& crawled_size) {
  std::vector<PageId> prefix(crawled_size.size());
  PageId next = 0;
  for (std::size_t s = 0; s < crawled_size.size(); ++s) {
    prefix[s] = next;
    next += crawled_size[s];
  }
  return prefix;
}

}  // namespace

SyntheticWebConfig google2002_config(std::uint32_t pages, std::uint64_t seed) {
  SyntheticWebConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 100;           // 100 .edu sites
  cfg.target_pages = pages;      // paper: ~1M; scaled for bench runtime
  cfg.crawl_fraction = 0.47;     // => ~7/15 of links land on crawled pages
  cfg.intra_site_fraction = 0.90;
  cfg.mean_out_degree = 15.0;    // 15M links / 1M pages
  return cfg;
}

WebGraph generate_synthetic_web(const SyntheticWebConfig& cfg) {
  validate(cfg);
  util::Rng size_rng(cfg.seed);
  const auto crawled_size = draw_site_sizes(cfg, size_rng);
  const auto page_prefix = prefix_of(crawled_size);
  const std::uint32_t sites = cfg.num_sites;

  GraphBuilder builder;
  for (std::uint32_t s = 0; s < sites; ++s) {
    const std::string site_name = site_name_of(s);
    for (std::uint32_t j = 0; j < crawled_size[s]; ++j) {
      builder.add_page(url_of(site_name, j), site_name);
    }
  }

  const double deg_scale = degree_scale(cfg);
  constexpr std::size_t kChunk = 1 << 16;
  int replay = 0;
  auto source = [&](const GraphBuilder::ChunkSink& sink) {
    // Each replay re-seeds and re-draws the site sizes so the link stream
    // picks up at the same RNG position every time.
    util::Rng rng(cfg.seed);
    (void)draw_site_sizes(cfg, rng);
    const bool tally_externals = replay++ == 0;
    std::vector<GraphBuilder::Edge> chunk;
    chunk.reserve(kChunk);
    emit_links(
        cfg, crawled_size, page_prefix, deg_scale, rng,
        [&](PageId from, PageId to) {
          chunk.push_back({from, to});
          if (chunk.size() == kChunk) {
            sink(chunk);
            chunk.clear();
          }
        },
        [&](PageId from) {
          // External tallies accumulate during the first replay only (the
          // builder reads them after the last; see add_external_link).
          if (tally_externals) builder.add_external_link(from);
        });
    if (!chunk.empty()) sink(chunk);
  };
  return std::move(builder).build_from_stream(source);
}

WebGraph generate_synthetic_web_streamed(const SyntheticWebConfig& cfg) {
  return generate_synthetic_web(cfg);
}

}  // namespace p2prank::graph
