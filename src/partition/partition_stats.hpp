// Quality metrics of a partition: cut links (they become inter-ranker
// traffic), balance, and per-group afferent/efferent degrees.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/web_graph.hpp"
#include "partition/partitioner.hpp"

namespace p2prank::partition {

struct PartitionStats {
  std::uint32_t k = 0;
  std::size_t pages = 0;
  std::size_t internal_links = 0;
  /// Links whose endpoints fall in different groups — every one of these
  /// produces a <url_from, url_to, score> record per exchange round.
  std::size_t cut_links = 0;
  std::size_t nonempty_groups = 0;
  std::size_t largest_group = 0;
  std::size_t smallest_nonempty_group = 0;
  std::vector<std::size_t> group_sizes;          // pages per group
  std::vector<std::size_t> group_efferent;       // cut links leaving group
  std::vector<std::size_t> group_afferent;       // cut links entering group

  /// cut / internal links.
  [[nodiscard]] double cut_fraction() const noexcept;
  /// largest group size relative to the perfectly balanced size (>= 1).
  [[nodiscard]] double imbalance() const noexcept;
};

[[nodiscard]] PartitionStats compute_partition_stats(
    const graph::WebGraph& g, const std::vector<GroupId>& groups, std::uint32_t k);

}  // namespace p2prank::partition
