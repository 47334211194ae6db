#include "partition/partition_stats.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace p2prank::partition {

double PartitionStats::cut_fraction() const noexcept {
  return internal_links == 0
             ? 0.0
             : static_cast<double>(cut_links) / static_cast<double>(internal_links);
}

double PartitionStats::imbalance() const noexcept {
  if (k == 0 || pages == 0) return 1.0;
  const double ideal = static_cast<double>(pages) / static_cast<double>(k);
  return static_cast<double>(largest_group) / ideal;
}

PartitionStats compute_partition_stats(const graph::WebGraph& g,
                                       const std::vector<GroupId>& groups,
                                       std::uint32_t k) {
  if (groups.size() != g.num_pages()) {
    throw std::invalid_argument("partition stats: assignment size mismatch");
  }
  PartitionStats s;
  s.k = k;
  s.pages = g.num_pages();
  s.internal_links = g.num_links();
  s.group_sizes.assign(k, 0);
  s.group_efferent.assign(k, 0);
  s.group_afferent.assign(k, 0);

  for (graph::PageId p = 0; p < g.num_pages(); ++p) {
    assert(groups[p] < k);
    ++s.group_sizes[groups[p]];
  }
  for (graph::PageId u = 0; u < g.num_pages(); ++u) {
    const GroupId gu = groups[u];
    for (const graph::PageId v : g.out_links(u)) {
      const GroupId gv = groups[v];
      if (gu != gv) {
        ++s.cut_links;
        ++s.group_efferent[gu];
        ++s.group_afferent[gv];
      }
    }
  }

  s.smallest_nonempty_group = std::numeric_limits<std::size_t>::max();
  for (const std::size_t size : s.group_sizes) {
    if (size == 0) continue;
    ++s.nonempty_groups;
    s.largest_group = std::max(s.largest_group, size);
    s.smallest_nonempty_group = std::min(s.smallest_nonempty_group, size);
  }
  if (s.nonempty_groups == 0) s.smallest_nonempty_group = 0;
  return s;
}

}  // namespace p2prank::partition
