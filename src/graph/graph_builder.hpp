// Mutable accumulator that assembles an immutable WebGraph.
//
// Crawl data arrives as (url, outlinks...) records where link targets may or
// may not themselves be crawled, and may be crawled *later* in the stream.
// The builder therefore interns pages eagerly and defers link resolution to
// build(): a link whose target URL was never interned as a page becomes an
// *external* link (its rank will leak out of the open system).
//
// build() emits the canonical CSR form documented in web_graph.hpp: out-link
// rows sorted by target, in-link rows derived from them. For graphs too
// large to buffer every edge in links_, see StreamingGraphBuilder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/web_graph.hpp"

namespace p2prank::graph {

class GraphBuilder {
 public:
  /// Intern a page by URL; the site is derived with site_of(). Returns the
  /// existing id if the URL was already interned (idempotent — crawlers
  /// revisit pages). Throws std::invalid_argument if the URL was previously
  /// interned under a *different* site: the two records describe
  /// irreconcilable page identities and silently keeping either one would
  /// corrupt site-granularity partitioning.
  PageId add_page(std::string_view url);

  /// Intern a page with an explicit site label (synthetic generators).
  PageId add_page(std::string_view url, std::string_view site);

  /// Link between two already-interned pages.
  void add_link(PageId from, PageId to);

  /// Link from an interned page to a URL that may or may not (yet) be a
  /// page. Resolution happens at build().
  void add_link_to_url(PageId from, std::string_view to_url);

  /// Link to a target known to be uncrawled; only the count is kept.
  /// Throws std::overflow_error if the page's external tally would exceed
  /// the uint32 range (mirrors intern()'s PageId-exhaustion guard).
  void add_external_link(PageId from, std::uint32_t count = 1);

  /// Id of an already-interned URL, if any. Lets loaders distinguish "page
  /// already declared" from "new page" without triggering intern()'s
  /// conflict check.
  [[nodiscard]] std::optional<PageId> find(std::string_view url) const;

  [[nodiscard]] std::size_t num_pages() const noexcept { return urls_.size(); }

  /// Consume the builder and produce the CSR graph. Duplicate (from, to)
  /// internal links stay parallel edges.
  [[nodiscard]] WebGraph build() &&;

 private:
  PageId intern(std::string_view url, std::string_view site);
  SiteId intern_site(std::string_view site);

  std::vector<std::string> urls_;
  std::vector<SiteId> page_sites_;
  std::vector<std::string> site_names_;
  std::unordered_map<std::string, PageId> url_to_page_;
  std::unordered_map<std::string, SiteId> site_to_id_;
  std::vector<std::pair<PageId, PageId>> links_;
  std::vector<std::pair<PageId, std::string>> unresolved_links_;
  std::vector<std::uint32_t> external_out_;
};

}  // namespace p2prank::graph
