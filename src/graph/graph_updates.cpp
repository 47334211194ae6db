#include "graph/graph_updates.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "graph/graph_builder.hpp"
#include "graph/name_table.hpp"
#include "graph/url.hpp"

namespace p2prank::graph {

LinkUpdate LinkUpdate::add_page(std::string_view url) {
  return {Kind::kAddPage, std::string(url), {}};
}
LinkUpdate LinkUpdate::add_link(std::string_view from, std::string_view to) {
  return {Kind::kAddLink, std::string(from), std::string(to)};
}
LinkUpdate LinkUpdate::remove_link(std::string_view from, std::string_view to) {
  return {Kind::kRemoveLink, std::string(from), std::string(to)};
}
LinkUpdate LinkUpdate::add_external(std::string_view from) {
  return {Kind::kAddExternal, std::string(from), {}};
}
LinkUpdate LinkUpdate::remove_external(std::string_view from) {
  return {Kind::kRemoveExternal, std::string(from), {}};
}

namespace {

/// Net effect of an update batch, keyed for sorted-merge splicing.
struct CompiledDelta {
  /// (from, to) -> net multiplicity change; zero-net entries are dropped.
  std::map<std::pair<PageId, PageId>, long long> links;
  /// from -> net external-count change; zero-net entries are dropped.
  std::map<PageId, long long> externals;
  /// Appended after existing pages, in first-mention order: new page i
  /// gets id num_pages() + i.
  NameTable new_pages;
};

/// Replay the batch in order, tracking effective counts so the sequential
/// error semantics match the rebuild oracle exactly: a removal is legal iff
/// base count plus the net delta accumulated *so far* is positive.
CompiledDelta compile_updates(const WebGraph& g,
                              std::span<const LinkUpdate> updates) {
  CompiledDelta d;
  const auto n_old = static_cast<PageId>(g.num_pages());

  auto resolve = [&](std::string_view url) -> PageId {
    if (const auto found = g.find(url)) return *found;
    if (const auto added = d.new_pages.find(url)) return n_old + *added;
    throw std::invalid_argument("apply_updates: unknown page '" +
                                std::string(url) + "'");
  };
  auto base_link_count = [&](PageId u, PageId v) -> long long {
    const auto row = g.out_links(u);
    const auto [lo, hi] = std::equal_range(row.begin(), row.end(), v);
    return hi - lo;
  };
  auto base_external = [&](PageId u) -> long long {
    return g.external_out_degree(u);
  };

  for (const auto& up : updates) {
    switch (up.kind) {
      case LinkUpdate::Kind::kAddPage: {
        if (!g.find(up.from_url) && !d.new_pages.find(up.from_url)) {
          if (n_old + d.new_pages.size() >= static_cast<std::size_t>(kInvalidPage)) {
            throw std::length_error("apply_updates: page id space exhausted");
          }
          d.new_pages.insert(up.from_url);
        }
        break;
      }
      case LinkUpdate::Kind::kAddLink: {
        const PageId u = resolve(up.from_url);
        const PageId v = resolve(up.to_url);
        ++d.links[{u, v}];
        break;
      }
      case LinkUpdate::Kind::kRemoveLink: {
        const PageId u = resolve(up.from_url);
        const PageId v = resolve(up.to_url);
        const auto it = d.links.find({u, v});
        const long long net = it != d.links.end() ? it->second : 0;
        if (base_link_count(u, v) + net <= 0) {
          throw std::invalid_argument("apply_updates: link not present: " +
                                      up.from_url + " -> " + up.to_url);
        }
        --d.links[{u, v}];
        break;
      }
      case LinkUpdate::Kind::kAddExternal: {
        const PageId u = resolve(up.from_url);
        const auto it = d.externals.find(u);
        const long long net = it != d.externals.end() ? it->second : 0;
        if (base_external(u) + net >=
            std::numeric_limits<std::uint32_t>::max()) {
          throw std::overflow_error(
              "apply_updates: external out-degree overflow at " + up.from_url);
        }
        ++d.externals[u];
        break;
      }
      case LinkUpdate::Kind::kRemoveExternal: {
        const PageId u = resolve(up.from_url);
        const auto it = d.externals.find(u);
        const long long net = it != d.externals.end() ? it->second : 0;
        if (base_external(u) + net <= 0) {
          throw std::invalid_argument("apply_updates: no external link at " +
                                      up.from_url);
        }
        --d.externals[u];
        break;
      }
    }
  }

  std::erase_if(d.links, [](const auto& kv) { return kv.second == 0; });
  std::erase_if(d.externals, [](const auto& kv) { return kv.second == 0; });
  return d;
}

}  // namespace

/// Splices a compiled delta against an existing graph's CSR arrays. Friend
/// of WebGraph; untouched rows copy verbatim, so the output is canonical
/// (web_graph.hpp) whenever the input is.
class GraphSplicer {
 public:
  static WebGraph splice(const WebGraph& g, CompiledDelta&& d) {
    const std::size_t n_old = g.num_pages();
    const std::size_t n_new = n_old + d.new_pages.size();
    WebGraph out;

    // Externals: copy, patch, re-total. compile_updates() bounds every
    // effective count to [0, UINT32_MAX].
    out.external_out_.assign(n_new, 0);
    std::copy(g.external_out_.begin(), g.external_out_.end(),
              out.external_out_.begin());
    for (const auto& [u, net] : d.externals) {
      out.external_out_[u] =
          static_cast<std::uint32_t>(out.external_out_[u] + net);
    }
    for (const auto e : out.external_out_) out.total_external_ += e;

    // Out-CSR keyed (from, to) — the delta map's native order.
    {
      std::vector<std::tuple<PageId, PageId, long long>> delta;
      delta.reserve(d.links.size());
      for (const auto& [edge, net] : d.links) {
        delta.emplace_back(edge.first, edge.second, net);
      }
      splice_axis(
          n_new, [&g](PageId u) { return g.out_links(u); }, delta,
          g.num_links(), out.out_offsets_, out.out_targets_);
    }

    // In-CSR: regroup by (to, from); the re-sort restores ascending-source
    // rows, matching the canonical derivation from sorted out-rows.
    {
      std::vector<std::tuple<PageId, PageId, long long>> delta;
      delta.reserve(d.links.size());
      for (const auto& [edge, net] : d.links) {
        delta.emplace_back(edge.second, edge.first, net);
      }
      std::sort(delta.begin(), delta.end());
      splice_axis(
          n_new, [&g](PageId v) { return g.in_links(v); }, delta,
          g.num_links(), out.in_offsets_, out.in_sources_);
    }

    if (d.new_pages.size() == 0) {
      // Link-only delta: the page-identity state is unchanged — share it.
      out.table_ = g.table_;
    } else {
      // Copies of the two name tables, extended: a new site gets the next
      // site id in first-seen order.
      NameTable urls;
      NameTable site_names;
      std::vector<SiteId> sites;
      if (g.table_ != nullptr) {
        urls = g.table_->urls;
        site_names = g.table_->site_names;
        sites = g.table_->sites;
      }
      sites.reserve(n_new);
      for (std::uint32_t i = 0; i < d.new_pages.size(); ++i) {
        const std::string_view url = d.new_pages[i];
        sites.push_back(site_names.insert(site_of(url)).first);
        urls.insert(url);
      }
      out.table_ = WebGraph::make_table(std::move(urls), std::move(site_names),
                                        std::move(sites));
    }
    return out;
  }

 private:
  /// Merge sorted per-row deltas into one CSR axis. `delta` is sorted by
  /// (row, id); a row with no delta entries copies verbatim from `base_row`.
  template <typename BaseRow>
  static void splice_axis(
      std::size_t n_new, const BaseRow& base_row,
      const std::vector<std::tuple<PageId, PageId, long long>>& delta,
      std::size_t base_total, std::vector<std::uint64_t>& offsets,
      std::vector<PageId>& elems) {
    offsets.assign(n_new + 1, 0);
    elems.reserve(base_total + delta.size());
    std::size_t di = 0;
    for (PageId row = 0; row < n_new; ++row) {
      const auto base = base_row(row);
      if (di >= delta.size() || std::get<0>(delta[di]) != row) {
        elems.insert(elems.end(), base.begin(), base.end());
      } else {
        std::size_t i = 0;
        for (; di < delta.size() && std::get<0>(delta[di]) == row; ++di) {
          const PageId id = std::get<1>(delta[di]);
          const long long net = std::get<2>(delta[di]);
          while (i < base.size() && base[i] < id) elems.push_back(base[i++]);
          long long count = net;
          while (i < base.size() && base[i] == id) {
            ++count;
            ++i;
          }
          elems.insert(elems.end(), static_cast<std::size_t>(count), id);
        }
        elems.insert(elems.end(), base.begin() + i, base.end());
      }
      offsets[row + 1] = elems.size();
    }
  }
};

GraphUpdateResult apply_updates_delta(const WebGraph& g,
                                      std::span<const LinkUpdate> updates) {
  CompiledDelta d = compile_updates(g, updates);

  GraphUpdateResult res;
  res.incremental = d.new_pages.size() == 0;
  for (const auto& [edge, net] : d.links) {
    (void)net;
    res.in_changed.push_back(edge.second);
  }
  std::sort(res.in_changed.begin(), res.in_changed.end());
  res.in_changed.erase(
      std::unique(res.in_changed.begin(), res.in_changed.end()),
      res.in_changed.end());

  // d(u) changes when the net internal out-row size or the external tally
  // moves; a swap that keeps the total (e.g. -a +b) leaves 1/d(u) intact.
  std::map<PageId, long long> degree_net;
  for (const auto& [edge, net] : d.links) degree_net[edge.first] += net;
  for (const auto& [u, net] : d.externals) degree_net[u] += net;
  for (const auto& [u, net] : degree_net) {
    if (net != 0) res.degree_changed.push_back(u);
  }

  res.graph = GraphSplicer::splice(g, std::move(d));
  return res;
}

WebGraph apply_updates(const WebGraph& g, std::span<const LinkUpdate> updates) {
  return apply_updates_delta(g, updates).graph;
}

WebGraph apply_updates_rebuild(const WebGraph& g,
                               std::span<const LinkUpdate> updates) {
  // Working copies of the mutable pieces.
  // Link multiset as (from, to) -> count so kRemoveLink can drop exactly one
  // instance of a parallel edge.
  std::map<std::pair<PageId, PageId>, std::uint32_t> links;
  for (PageId u = 0; u < g.num_pages(); ++u) {
    for (const PageId v : g.out_links(u)) ++links[{u, v}];
  }
  std::vector<std::uint32_t> external(g.num_pages());
  for (PageId u = 0; u < g.num_pages(); ++u) external[u] = g.external_out_degree(u);

  // New pages (appended after existing ones, in update order).
  NameTable new_pages;
  auto resolve = [&](std::string_view url) -> PageId {
    if (const auto found = g.find(url)) return *found;
    if (const auto added = new_pages.find(url)) {
      return static_cast<PageId>(g.num_pages()) + *added;
    }
    throw std::invalid_argument("apply_updates: unknown page '" +
                                std::string(url) + "'");
  };

  for (const auto& up : updates) {
    switch (up.kind) {
      case LinkUpdate::Kind::kAddPage: {
        if (!g.find(up.from_url) && new_pages.insert(up.from_url).second) {
          external.push_back(0);
        }
        break;
      }
      case LinkUpdate::Kind::kAddLink:
        ++links[{resolve(up.from_url), resolve(up.to_url)}];
        break;
      case LinkUpdate::Kind::kRemoveLink: {
        const auto key = std::make_pair(resolve(up.from_url), resolve(up.to_url));
        const auto it = links.find(key);
        if (it == links.end() || it->second == 0) {
          throw std::invalid_argument("apply_updates: link not present: " +
                                      up.from_url + " -> " + up.to_url);
        }
        if (--it->second == 0) links.erase(it);
        break;
      }
      case LinkUpdate::Kind::kAddExternal:
        ++external[resolve(up.from_url)];
        break;
      case LinkUpdate::Kind::kRemoveExternal: {
        const PageId u = resolve(up.from_url);
        if (external[u] == 0) {
          throw std::invalid_argument("apply_updates: no external link at " +
                                      up.from_url);
        }
        --external[u];
        break;
      }
    }
  }

  // Rebuild, preserving page order (and hence PageIds).
  GraphBuilder builder;
  for (PageId p = 0; p < g.num_pages(); ++p) {
    builder.add_page(g.url(p), g.site_name(g.site(p)));
  }
  for (std::uint32_t i = 0; i < new_pages.size(); ++i) {
    builder.add_page(new_pages[i]);
  }
  for (const auto& [edge, count] : links) {
    for (std::uint32_t c = 0; c < count; ++c) builder.add_link(edge.first, edge.second);
  }
  for (PageId u = 0; u < external.size(); ++u) {
    if (external[u] > 0) builder.add_external_link(u, external[u]);
  }
  return std::move(builder).build();
}

}  // namespace p2prank::graph
