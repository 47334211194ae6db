// Immutable web link graph in compressed sparse row (CSR) form.
//
// This is the substrate every ranking algorithm iterates over, so the layout
// is optimized for the SpMV-style sweep in rank/: contiguous out-link and
// in-link arrays indexed by prefix-sum offsets. Beyond plain adjacency, the
// graph carries two pieces of web-specific bookkeeping the paper's model
// needs:
//
//  * the *site* of every page — partitioning at site granularity
//    (Section 4.1) and intra-site link statistics depend on it;
//  * the *external out-degree* of every page — links that point at pages
//    outside the crawled collection. In the open-system model (Section 3)
//    the rank carried by such links leaves the system entirely; the paper's
//    dataset has 8M of its 15M links external, which is why average rank
//    converges to ~0.3 rather than 1.0 (Fig. 7).
//
// Canonical form: every constructed WebGraph stores each out-link row in
// ascending target order (duplicates adjacent), and the in-link rows —
// derived from the sorted out rows — in ascending source order. Two graphs
// with the same link multiset therefore have bitwise-identical CSR arrays
// no matter how they were built (GraphBuilder from buffered or streamed
// edges, the incremental splice of apply_updates, or the binary loader),
// which is what lets the incremental update path promise bitwise-identical
// rank vectors (DESIGN.md §14).
//
// The page-identity state (URLs, sites, the site→pages CSR, the URL index)
// lives in an immutable PageTable shared via shared_ptr: an incremental
// update that only changes links produces a new WebGraph that *shares* the
// table with its predecessor instead of copying millions of URL strings.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace p2prank::graph {

using PageId = std::uint32_t;
using SiteId = std::uint32_t;

inline constexpr PageId kInvalidPage = static_cast<PageId>(-1);
inline constexpr SiteId kInvalidSite = static_cast<SiteId>(-1);

class GraphBuilder;
class GraphSplicer;
class GraphBinaryIo;

class WebGraph {
 public:
  WebGraph() = default;

  // Move-only: the url index stores views into the page table's string
  // storage, which sharing/moving preserves but memberwise copying of a
  // rebuilt table would leave dangling. Link-only update paths share the
  // table instead of copying (see GraphSplicer).
  WebGraph(const WebGraph&) = delete;
  WebGraph& operator=(const WebGraph&) = delete;
  WebGraph(WebGraph&&) = default;
  WebGraph& operator=(WebGraph&&) = default;

  [[nodiscard]] std::size_t num_pages() const noexcept {
    return table_ ? table_->sites.size() : 0;
  }
  [[nodiscard]] std::size_t num_sites() const noexcept {
    return table_ ? table_->site_names.size() : 0;
  }

  /// Internal links only (both endpoints crawled).
  [[nodiscard]] std::size_t num_links() const noexcept { return out_targets_.size(); }

  /// Links whose target lies outside the crawled collection.
  [[nodiscard]] std::size_t num_external_links() const noexcept {
    return total_external_;
  }

  /// Crawled targets of page u's out-links (ascending, duplicates adjacent).
  /// Empty for any u on a default-constructed graph.
  [[nodiscard]] std::span<const PageId> out_links(PageId u) const noexcept {
    if (u + std::size_t{1} >= out_offsets_.size()) return {};
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// Crawled sources of links into page v (ascending, duplicates adjacent).
  /// Empty for any v on a default-constructed graph.
  [[nodiscard]] std::span<const PageId> in_links(PageId v) const noexcept {
    if (v + std::size_t{1} >= in_offsets_.size()) return {};
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Number of out-links with an uncrawled target.
  [[nodiscard]] std::uint32_t external_out_degree(PageId u) const noexcept {
    return u < external_out_.size() ? external_out_[u] : 0;
  }

  /// Total out-degree d(u): crawled + uncrawled targets. This is the d(u)
  /// of formula 2.1/3.1 — rank divides over *all* outgoing links.
  [[nodiscard]] std::uint32_t out_degree(PageId u) const noexcept {
    return static_cast<std::uint32_t>(out_links(u).size()) + external_out_degree(u);
  }

  [[nodiscard]] std::uint32_t in_degree(PageId v) const noexcept {
    return static_cast<std::uint32_t>(in_links(v).size());
  }

  /// True when the page has no outgoing links at all (a "dangling" page).
  [[nodiscard]] bool is_dangling(PageId u) const noexcept { return out_degree(u) == 0; }

  [[nodiscard]] SiteId site(PageId u) const noexcept { return table_->sites[u]; }
  [[nodiscard]] const std::string& url(PageId u) const { return table_->urls[u]; }
  [[nodiscard]] const std::string& site_name(SiteId s) const {
    return table_->site_names[s];
  }

  /// Pages belonging to a site (ascending PageId order). Empty for any s on
  /// a default-constructed graph.
  [[nodiscard]] std::span<const PageId> pages_of_site(SiteId s) const noexcept {
    if (table_ == nullptr || s + std::size_t{1} >= table_->site_offsets.size()) {
      return {};
    }
    return {table_->site_pages.data() + table_->site_offsets[s],
            table_->site_pages.data() + table_->site_offsets[s + 1]};
  }

  /// Look up a page by its (normalized) URL.
  [[nodiscard]] std::optional<PageId> find(std::string_view url) const;

  /// Number of internal links whose endpoints share a site.
  [[nodiscard]] std::size_t count_intra_site_links() const noexcept;

 private:
  friend class GraphBuilder;
  friend class GraphSplicer;
  friend class GraphBinaryIo;

  /// Page-identity state, immutable once built and shared across link-only
  /// graph updates. url_index keys are views into urls' heap buffers, which
  /// stay put for the table's lifetime.
  struct PageTable {
    std::vector<std::string> urls;
    std::vector<std::string> site_names;
    std::vector<SiteId> sites;
    std::vector<std::uint64_t> site_offsets;  // size num_sites+1
    std::vector<PageId> site_pages;
    std::unordered_map<std::string_view, PageId> url_index;
  };

  /// Derive the site→pages CSR and URL index and freeze the identity state.
  /// Shared by every construction path (GraphBuilder, the splicer, the
  /// binary loader). Throws std::runtime_error naming a repeated URL or
  /// site name: find(), the text format and checkpoints identify pages and
  /// sites by name, so a repeat could not round-trip.
  static std::shared_ptr<const PageTable> make_table(
      std::vector<std::string> urls, std::vector<std::string> site_names,
      std::vector<SiteId> sites);

  /// Derive the in-CSR from the sorted out-rows (out_offsets_ sized n+1):
  /// an ascending-source scan leaves every in-row ascending. Shared by
  /// GraphBuilder and the binary loader; only the splicer patches in-rows
  /// itself.
  void derive_in_rows();

  std::shared_ptr<const PageTable> table_;
  std::vector<std::uint64_t> out_offsets_;  // size n+1
  std::vector<PageId> out_targets_;
  std::vector<std::uint64_t> in_offsets_;  // size n+1
  std::vector<PageId> in_sources_;
  std::vector<std::uint32_t> external_out_;
  std::size_t total_external_ = 0;
};

}  // namespace p2prank::graph
