#include "graph/graph_builder.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/url.hpp"

namespace p2prank::graph {

PageId GraphBuilder::add_page(std::string_view url) {
  return intern(url, site_of(url));
}

PageId GraphBuilder::add_page(std::string_view url, std::string_view site) {
  return intern(url, site);
}

PageId GraphBuilder::intern(std::string_view url, std::string_view site) {
  const auto it = url_to_page_.find(std::string(url));
  if (it != url_to_page_.end()) {
    if (site_names_[page_sites_[it->second]] != site) {
      throw std::invalid_argument("GraphBuilder: page '" + std::string(url) +
                                  "' re-added with conflicting site '" +
                                  std::string(site) + "' (was '" +
                                  site_names_[page_sites_[it->second]] + "')");
    }
    return it->second;
  }
  if (urls_.size() >= static_cast<std::size_t>(kInvalidPage)) {
    throw std::length_error("GraphBuilder: page id space exhausted");
  }
  const auto id = static_cast<PageId>(urls_.size());
  urls_.emplace_back(url);
  page_sites_.push_back(intern_site(site));
  external_out_.push_back(0);
  url_to_page_.emplace(urls_.back(), id);
  return id;
}

SiteId GraphBuilder::intern_site(std::string_view site) {
  const auto it = site_to_id_.find(std::string(site));
  if (it != site_to_id_.end()) return it->second;
  const auto id = static_cast<SiteId>(site_names_.size());
  site_names_.emplace_back(site);
  site_to_id_.emplace(site_names_.back(), id);
  return id;
}

void GraphBuilder::add_link(PageId from, PageId to) {
  assert(from < urls_.size() && to < urls_.size());
  links_.emplace_back(from, to);
}

void GraphBuilder::add_link_to_url(PageId from, std::string_view to_url) {
  assert(from < urls_.size());
  const auto it = url_to_page_.find(std::string(to_url));
  if (it != url_to_page_.end()) {
    links_.emplace_back(from, it->second);
  } else {
    unresolved_links_.emplace_back(from, std::string(to_url));
  }
}

void GraphBuilder::add_external_link(PageId from, std::uint32_t count) {
  assert(from < urls_.size());
  if (count > std::numeric_limits<std::uint32_t>::max() - external_out_[from]) {
    throw std::overflow_error("GraphBuilder: external out-degree overflow at '" +
                              urls_[from] + "'");
  }
  external_out_[from] += count;
}

std::optional<PageId> GraphBuilder::find(std::string_view url) const {
  const auto it = url_to_page_.find(std::string(url));
  if (it == url_to_page_.end()) return std::nullopt;
  return it->second;
}

WebGraph GraphBuilder::build() && {
  // Resolve deferred targets: anything interned by now is internal.
  for (auto& [from, url] : unresolved_links_) {
    const auto it = url_to_page_.find(url);
    if (it != url_to_page_.end()) {
      links_.emplace_back(from, it->second);
    } else {
      // Deferred externals bypass add_external_link, so repeat its guard.
      if (external_out_[from] == std::numeric_limits<std::uint32_t>::max()) {
        throw std::overflow_error(
            "GraphBuilder: external out-degree overflow at '" + urls_[from] + "'");
      }
      ++external_out_[from];
    }
  }
  unresolved_links_.clear();

  // Canonical form (web_graph.hpp): rows sorted by (from, to), so
  // splice/streaming paths can reproduce these arrays bitwise.
  std::sort(links_.begin(), links_.end());

  const std::size_t n = urls_.size();
  WebGraph g;
  g.table_ = WebGraph::make_table(std::move(urls_), std::move(site_names_),
                                  std::move(page_sites_));
  g.external_out_ = std::move(external_out_);
  for (const auto e : g.external_out_) g.total_external_ += e;

  // Out CSR: links_ is sorted by source already, so a counting scatter
  // preserves per-row target order.
  g.out_offsets_.assign(n + 1, 0);
  for (const auto& [from, to] : links_) {
    (void)to;
    ++g.out_offsets_[from + 1];
  }
  for (std::size_t i = 0; i < n; ++i) g.out_offsets_[i + 1] += g.out_offsets_[i];
  g.out_targets_.resize(links_.size());
  {
    std::vector<std::uint64_t> cursor(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
    for (const auto& [from, to] : links_) {
      g.out_targets_[cursor[from]++] = to;
    }
  }

  // In CSR via counting sort on target; scanning links_ in (from, to) order
  // leaves each in-row's sources ascending.
  g.in_offsets_.assign(n + 1, 0);
  for (const auto& [from, to] : links_) {
    (void)from;
    ++g.in_offsets_[to + 1];
  }
  for (std::size_t i = 0; i < n; ++i) g.in_offsets_[i + 1] += g.in_offsets_[i];
  g.in_sources_.resize(links_.size());
  {
    std::vector<std::uint64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (const auto& [from, to] : links_) {
      g.in_sources_[cursor[to]++] = from;
    }
  }
  links_.clear();
  links_.shrink_to_fit();

  return g;
}

}  // namespace p2prank::graph
