// Mutable accumulator that assembles an immutable WebGraph — the one class
// that interns pages and builds CSR arrays.
//
// Crawl data arrives as (url, outlinks...) records where link targets may or
// may not themselves be crawled, and may be crawled *later* in the stream.
// The builder therefore interns pages eagerly and defers link resolution to
// build(): a link whose target URL was never interned as a page becomes an
// *external* link (its rank will leak out of the open system).
//
// Edges reach the CSR in one of two ways, through the same assembly:
//
//  * buffered — add_link / add_link_to_url keep one (from, to) pair per
//    link until build();
//  * streamed — build_from_stream replays a caller's edge source twice
//    (count, then scatter), so peak transient memory is one chunk of edges
//    instead of the whole edge list. This is how the 1M–10M-page scale
//    runs are generated.
//
// The assembly counts per-row degrees, scatters targets, sorts each row and
// derives the in-rows from the sorted out-rows: the canonical CSR form
// documented in web_graph.hpp, so the same pages and edge multiset give
// bitwise-identical arrays whichever way the edges arrived.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/web_graph.hpp"

namespace p2prank::graph {

class GraphBuilder {
 public:
  struct Edge {
    PageId from;
    PageId to;
  };

  /// Receives one chunk of edges; invoked by the EdgeSource.
  using ChunkSink = std::function<void(std::span<const Edge>)>;

  /// Produces the edge stream by calling the sink once per chunk. Invoked
  /// twice by build_from_stream (count pass, then scatter pass); each
  /// invocation must deliver the same edge *multiset* — chunk boundaries
  /// and ordering are free to differ.
  using EdgeSource = std::function<void(const ChunkSink&)>;

  /// Intern a page by URL; the site is derived with site_of(). Returns the
  /// existing id if the URL was already interned (idempotent — crawlers
  /// revisit pages). Throws std::invalid_argument if the URL was previously
  /// interned under a *different* site: the two records describe
  /// irreconcilable page identities and silently keeping either one would
  /// corrupt site-granularity partitioning.
  PageId add_page(std::string_view url);

  /// Intern a page with an explicit site label (synthetic generators).
  PageId add_page(std::string_view url, std::string_view site);

  /// Link between two already-interned pages. Every method that takes a
  /// PageId throws std::out_of_range for one that was never interned.
  void add_link(PageId from, PageId to);

  /// Link from an interned page to a URL that may or may not (yet) be a
  /// page. Resolution happens at build().
  void add_link_to_url(PageId from, std::string_view to_url);

  /// Link to a target known to be uncrawled; only the count is kept.
  /// Throws std::overflow_error if the page's external tally would exceed
  /// the uint32 range (mirrors intern()'s PageId-exhaustion guard). May
  /// also be called from inside an EdgeSource, on one replay only: the
  /// tallies are read after the final replay.
  void add_external_link(PageId from, std::uint32_t count = 1);

  /// Id of an already-interned URL, if any. Lets loaders distinguish "page
  /// already declared" from "new page" without triggering intern()'s
  /// conflict check.
  [[nodiscard]] std::optional<PageId> find(std::string_view url) const;

  [[nodiscard]] std::size_t num_pages() const noexcept { return urls_.size(); }

  /// Consume the builder and produce the CSR graph from the buffered links.
  /// Duplicate (from, to) internal links stay parallel edges.
  [[nodiscard]] WebGraph build() &&;

  /// Consume the builder and build the CSR graph from two replays of
  /// `source` (build() replays its buffered links through it). Throws
  /// std::out_of_range on an edge endpoint that was never interned and
  /// std::logic_error if the two replays disagree on the edge count of any
  /// source page, or if links were buffered with add_link*.
  [[nodiscard]] WebGraph build_from_stream(const EdgeSource& source) &&;

 private:
  PageId intern(std::string_view url, std::string_view site);
  SiteId intern_site(std::string_view site);
  void check_page(PageId p) const;

  std::vector<std::string> urls_;
  std::vector<SiteId> page_sites_;
  std::vector<std::string> site_names_;
  std::unordered_map<std::string, PageId> url_to_page_;
  std::unordered_map<std::string, SiteId> site_to_id_;
  std::vector<Edge> links_;
  std::vector<std::pair<PageId, std::string>> unresolved_links_;
  std::vector<std::uint32_t> external_out_;
};

}  // namespace p2prank::graph
