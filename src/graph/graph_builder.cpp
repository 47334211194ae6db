#include "graph/graph_builder.hpp"

#include <algorithm>
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
  if (const auto id = urls_.find(url)) {
    const std::string_view was = site_names_[page_sites_[*id]];
    if (was != site) {
      throw std::invalid_argument("GraphBuilder: page '" + std::string(url) +
                                  "' re-added with conflicting site '" +
                                  std::string(site) + "' (was '" +
                                  std::string(was) + "')");
    }
    return *id;
  }
  if (urls_.size() >= static_cast<std::size_t>(kInvalidPage)) {
    throw std::length_error("GraphBuilder: page id space exhausted");
  }
  const PageId id = urls_.insert(url).first;
  page_sites_.push_back(site_names_.insert(site).first);
  external_out_.push_back(0);
  return id;
}

void GraphBuilder::check_page(PageId p) const {
  if (p >= urls_.size()) {
    throw std::out_of_range("GraphBuilder: page id " + std::to_string(p) +
                            " was never interned");
  }
}

void GraphBuilder::add_link(PageId from, PageId to) {
  check_page(from);
  check_page(to);
  links_.push_back({from, to});
}

void GraphBuilder::add_link_to_url(PageId from, std::string_view to_url) {
  check_page(from);
  if (const auto to = urls_.find(to_url)) {
    links_.push_back({from, *to});
  } else {
    unresolved_links_.emplace_back(from, std::string(to_url));
  }
}

void GraphBuilder::add_external_link(PageId from, std::uint32_t count) {
  check_page(from);
  if (count > std::numeric_limits<std::uint32_t>::max() - external_out_[from]) {
    throw std::overflow_error("GraphBuilder: external out-degree overflow at '" +
                              std::string(urls_[from]) + "'");
  }
  external_out_[from] += count;
}

std::optional<PageId> GraphBuilder::find(std::string_view url) const {
  return urls_.find(url);
}

WebGraph GraphBuilder::build() && {
  // Resolve deferred targets: anything interned by now is internal.
  for (const auto& [from, url] : unresolved_links_) {
    if (const auto to = urls_.find(url)) {
      links_.push_back({from, *to});
    } else {
      add_external_link(from);
    }
  }
  unresolved_links_.clear();

  std::vector<Edge> links;
  links.swap(links_);
  return std::move(*this).build_from_stream(
      [&links](const ChunkSink& sink) { sink(links); });
}

WebGraph GraphBuilder::build_from_stream(const EdgeSource& source) && {
  if (!links_.empty() || !unresolved_links_.empty()) {
    throw std::logic_error("GraphBuilder: build_from_stream with buffered links");
  }
  const std::size_t n = urls_.size();
  WebGraph g;

  // Pass 1: per-source degree counts size the out-CSR exactly.
  g.out_offsets_.assign(n + 1, 0);
  source([&](std::span<const Edge> chunk) {
    for (const Edge& e : chunk) {
      if (e.from >= n || e.to >= n) {
        throw std::out_of_range("GraphBuilder: edge endpoint not interned");
      }
      ++g.out_offsets_[e.from + 1];
    }
  });
  for (std::size_t i = 0; i < n; ++i) g.out_offsets_[i + 1] += g.out_offsets_[i];
  g.out_targets_.resize(g.out_offsets_[n]);

  // Pass 2: scatter targets into their rows.
  {
    std::vector<std::uint64_t> cursor(g.out_offsets_.begin(),
                                      g.out_offsets_.end() - 1);
    source([&](std::span<const Edge> chunk) {
      for (const Edge& e : chunk) {
        if (e.from >= n || e.to >= n) {
          throw std::out_of_range("GraphBuilder: edge endpoint not interned");
        }
        if (cursor[e.from] >= g.out_offsets_[e.from + 1]) {
          throw std::logic_error("GraphBuilder: edge source replay mismatch at '" +
                                 std::string(urls_[e.from]) + "'");
        }
        g.out_targets_[cursor[e.from]++] = e.to;
      }
    });
    for (PageId u = 0; u < n; ++u) {
      if (cursor[u] != g.out_offsets_[u + 1]) {
        throw std::logic_error("GraphBuilder: edge source replay mismatch at '" +
                               std::string(urls_[u]) + "'");
      }
    }
  }

  // Canonical form (web_graph.hpp): sort each out-row, then derive the
  // in-rows from the sorted out-rows.
  for (PageId u = 0; u < n; ++u) {
    std::sort(g.out_targets_.begin() + static_cast<std::ptrdiff_t>(g.out_offsets_[u]),
              g.out_targets_.begin() +
                  static_cast<std::ptrdiff_t>(g.out_offsets_[u + 1]));
  }
  g.derive_in_rows();

  // Externals are read last: a source may tally them during a replay.
  g.external_out_ = std::move(external_out_);
  for (const auto e : g.external_out_) g.total_external_ += e;
  g.table_ = WebGraph::make_table(std::move(urls_), std::move(site_names_),
                                  std::move(page_sites_));
  return g;
}

}  // namespace p2prank::graph
