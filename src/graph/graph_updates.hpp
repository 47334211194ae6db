// Link-graph mutation: produce a new crawl with links/pages added or removed.
//
// The paper's convergence proofs assume a static link graph, but Section 4.3
// is explicit that real crawls churn ("we believe the two algorithms DO
// converge without these constrains") — crawlers revisit pages, links
// appear and disappear. WebGraph is immutable (the ranking kernels depend
// on its frozen CSR layout), so updates produce a *new* graph:
//
//   * existing pages keep their PageIds (updates never reorder pages);
//   * new pages append at the end;
//   * page removal is intentionally unsupported — a crawler that drops a
//     page keeps its URL slot and the page simply loses its links, which is
//     exactly apply_updates with kRemoveLink/kRemoveExternal.
//
// Updates are compiled into a sorted edge delta and *spliced* against the
// existing CSR: untouched rows copy verbatim, touched rows merge with the
// delta, and — when no pages are added — the page table is shared with the
// old graph, so a small delta on a huge graph costs O(E) array copies with
// no string or index work at all (DESIGN.md §14). A link-only delta also
// reports exactly which rows changed, which is what the engine's
// incremental warm start (DistributedRanking::warm_start_incremental) needs
// to re-seed only the affected worklist frontier.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/web_graph.hpp"

namespace p2prank::graph {

struct LinkUpdate {
  enum class Kind {
    kAddPage,         ///< url (+ site via site_of); no-op if it exists
    kAddLink,         ///< from_url -> to_url (both must be pages)
    kRemoveLink,      ///< remove one instance of from_url -> to_url
    kAddExternal,     ///< one more uncrawled-target link from from_url
    kRemoveExternal,  ///< one fewer
  };

  Kind kind = Kind::kAddLink;
  std::string from_url;  ///< the page URL for kAddPage
  std::string to_url;    ///< unused for kAddPage/k*External

  [[nodiscard]] static LinkUpdate add_page(std::string_view url);
  [[nodiscard]] static LinkUpdate add_link(std::string_view from, std::string_view to);
  [[nodiscard]] static LinkUpdate remove_link(std::string_view from,
                                              std::string_view to);
  [[nodiscard]] static LinkUpdate add_external(std::string_view from);
  [[nodiscard]] static LinkUpdate remove_external(std::string_view from);
};

struct GraphUpdateResult {
  WebGraph graph;

  /// True when the update batch added no pages: the new graph shares the old
  /// one's page table and the changed-row lists below are exact, so the
  /// engine may warm-start incrementally instead of cold-rebuilding.
  bool incremental = false;

  /// Pages whose in-neighborhood changed (some in-link was added, removed,
  /// or re-weighted). Sorted ascending, deduplicated.
  std::vector<PageId> in_changed;

  /// Pages whose total out-degree d(u) changed — their 1/d(u) link weight,
  /// and hence their contribution to every target, is different in the new
  /// graph. Sorted ascending, deduplicated.
  std::vector<PageId> degree_changed;
};

/// Apply updates in order and splice the resulting delta against g's CSR.
/// Throws std::invalid_argument when an update references a missing page or
/// removes a link that is not there (checked sequentially, so a link added
/// earlier in the batch may be removed later).
[[nodiscard]] GraphUpdateResult apply_updates_delta(
    const WebGraph& g, std::span<const LinkUpdate> updates);

/// Convenience wrapper around apply_updates_delta for callers that only
/// want the new graph.
[[nodiscard]] WebGraph apply_updates(const WebGraph& g,
                                     std::span<const LinkUpdate> updates);

/// Reference implementation: re-materializes the full link multiset in a
/// std::map and rebuilds from scratch, O(E log E). Kept as the oracle the
/// splice path is property-tested against — not for production use.
[[nodiscard]] WebGraph apply_updates_rebuild(const WebGraph& g,
                                             std::span<const LinkUpdate> updates);

}  // namespace p2prank::graph
