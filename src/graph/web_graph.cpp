#include "graph/web_graph.hpp"

#include <stdexcept>
#include <unordered_set>

namespace p2prank::graph {

std::optional<PageId> WebGraph::find(std::string_view url) const {
  if (table_ == nullptr) return std::nullopt;
  const auto it = table_->url_index.find(url);
  if (it == table_->url_index.end()) return std::nullopt;
  return it->second;
}

std::shared_ptr<const WebGraph::PageTable> WebGraph::make_table(
    std::vector<std::string> urls, std::vector<std::string> site_names,
    std::vector<SiteId> sites) {
  auto table = std::make_shared<PageTable>();
  table->urls = std::move(urls);
  table->site_names = std::move(site_names);
  table->sites = std::move(sites);

  const std::size_t n = table->urls.size();
  const std::size_t num_sites = table->site_names.size();
  {
    std::unordered_set<std::string_view> seen;
    seen.reserve(num_sites);
    for (const std::string& name : table->site_names) {
      if (!seen.insert(name).second) {
        throw std::runtime_error("WebGraph: repeated site name '" + name + "'");
      }
    }
  }
  table->site_offsets.assign(num_sites + 1, 0);
  for (const SiteId s : table->sites) ++table->site_offsets[s + 1];
  for (std::size_t i = 0; i < num_sites; ++i) {
    table->site_offsets[i + 1] += table->site_offsets[i];
  }
  table->site_pages.resize(n);
  {
    std::vector<std::uint64_t> cursor(table->site_offsets.begin(),
                                      table->site_offsets.end() - 1);
    for (PageId p = 0; p < n; ++p) {
      table->site_pages[cursor[table->sites[p]]++] = p;
    }
  }

  table->url_index.reserve(n);
  for (PageId p = 0; p < n; ++p) {
    if (!table->url_index.emplace(table->urls[p], p).second) {
      throw std::runtime_error("WebGraph: repeated url '" + table->urls[p] + "'");
    }
  }
  return table;
}

void WebGraph::derive_in_rows() {
  const std::size_t n = out_offsets_.size() - 1;
  in_offsets_.assign(n + 1, 0);
  for (const PageId v : out_targets_) ++in_offsets_[v + 1];
  for (std::size_t i = 0; i < n; ++i) in_offsets_[i + 1] += in_offsets_[i];
  in_sources_.resize(out_targets_.size());
  std::vector<std::uint64_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (PageId u = 0; u < n; ++u) {
    for (std::uint64_t k = out_offsets_[u]; k < out_offsets_[u + 1]; ++k) {
      in_sources_[cursor[out_targets_[k]]++] = u;
    }
  }
}

std::size_t WebGraph::count_intra_site_links() const noexcept {
  std::size_t intra = 0;
  for (PageId u = 0; u < num_pages(); ++u) {
    const SiteId s = table_->sites[u];
    for (const PageId v : out_links(u)) {
      if (table_->sites[v] == s) ++intra;
    }
  }
  return intra;
}

}  // namespace p2prank::graph
