// The engine's wiring against naive oracles. Each group's local matrix must
// equal a filter of the crawl's in_links by the assignment, its push CSR the
// blocked transpose of those rows (test::push_oracle), and after a few
// steps each Y slice must equal, bit for bit, one computed from efferent
// blocks built the engine's original way (test::oracle_efferents). Runs over
// hash-site, hash-URL and random partitions at K = 1, 7 and 64; at K = 64
// hash-site leaves groups empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

const graph::WebGraph& crawl() {
  static const graph::WebGraph g =
      graph::generate_synthetic_web(graph::google2002_config(3000, 11));
  return g;
}

std::vector<std::uint32_t> as_vector(std::span<const std::uint32_t> s) {
  return {s.begin(), s.end()};
}

/// Adds to `blocked_groups` the groups whose matrix has a blocked row.
void check_wiring(const partition::Partitioner& partitioner, std::uint32_t k,
                  std::size_t& blocked_groups) {
  SCOPED_TRACE(std::string(partitioner.name()) + " K=" + std::to_string(k));
  const auto& g = crawl();
  const auto assignment = partitioner.partition(g, k);
  util::ThreadPool pool(1);
  EngineOptions opts;
  opts.algorithm = Algorithm::kDPR2;
  opts.alpha = kAlpha;
  opts.seed = 99;
  DistributedRanking engine(g, assignment, k, opts, pool);
  engine.set_reference(open_system_reference(g, kAlpha, pool));
  (void)engine.run(4.0, 4.0);

  std::vector<std::uint32_t> local(g.num_pages());
  std::vector<std::vector<graph::PageId>> members(k);
  for (graph::PageId p = 0; p < g.num_pages(); ++p) {
    local[p] = static_cast<std::uint32_t>(members[assignment[p]].size());
    members[assignment[p]].push_back(p);
  }

  for (std::uint32_t grp = 0; grp < k; ++grp) {
    SCOPED_TRACE("group " + std::to_string(grp));
    const PageGroup& pg = engine.group(grp);
    const auto& m = pg.matrix();
    ASSERT_EQ(std::vector<graph::PageId>(pg.members().begin(), pg.members().end()),
              members[grp]);

    // Pull rows and weights: the in-links whose source sits in the group.
    std::vector<std::vector<std::uint32_t>> out_naive(members[grp].size());
    for (std::uint32_t i = 0; i < members[grp].size(); ++i) {
      const graph::PageId v = members[grp][i];
      std::vector<std::uint32_t> row;
      for (const graph::PageId u : g.in_links(v)) {
        if (assignment[u] != grp) continue;
        row.push_back(local[u]);
        out_naive[local[u]].push_back(i);
      }
      ASSERT_EQ(as_vector(m.row_sources(i)), row) << "row " << i;
      const auto d = g.out_degree(v);
      EXPECT_EQ(m.source_weights()[i], d > 0 ? kAlpha / static_cast<double>(d) : 0.0);
    }
    // Push rows: the same edges, per source, rows ascending, each entry
    // decoding to its row; an edge into a row longer than kBlockEdges holds
    // the tagged block of its pull position (test::push_oracle).
    const auto push = test::push_oracle(m);
    for (std::uint32_t u = 0; u < members[grp].size(); ++u) {
      const auto entries = as_vector(m.out_targets(u));
      ASSERT_EQ(entries, push[u]) << "source " << u;
      std::vector<std::uint32_t> rows;
      for (const std::uint32_t t : entries) rows.push_back(m.target_row(t));
      ASSERT_EQ(rows, out_naive[u]) << "source " << u;
    }
    blocked_groups += m.num_blocks() > 0 ? 1 : 0;

    // Y slices: same destinations, same entries, same bits.
    const auto blocks = test::oracle_efferents(g, assignment, grp, kAlpha);
    std::vector<std::uint32_t> dests;
    for (const auto& [dest, block] : blocks) dests.push_back(dest);
    ASSERT_EQ(as_vector(pg.efferent_destinations()), dests);
    const auto expect_oracle = [&](const YSlice& y, std::uint32_t dest) {
      const auto& block = blocks.at(dest);
      ASSERT_EQ(y.record_count, block.dst_local.size()) << "dest " << dest;
      const auto want = test::oracle_y(block, pg.ranks());
      ASSERT_EQ(y.entries.size(), want.size()) << "dest " << dest;
      for (std::size_t e = 0; e < want.size(); ++e) {
        ASSERT_EQ(y.entries[e].first, want[e].first) << "dest " << dest;
        // Bitwise: EXPECT_EQ on doubles is exact.
        ASSERT_EQ(y.entries[e].second, want[e].second)
            << "dest " << dest << " page " << want[e].first;
      }
    };
    for (const std::uint32_t dest : dests) expect_oracle(pg.compute_y(dest), dest);
    // The buffer overload refills one slice for every destination in turn,
    // longest first, so each fill starts from another destination's
    // longer slice and must clear it.
    std::map<std::uint32_t, std::size_t> length;
    for (const auto& [dest, block] : blocks) {
      length[dest] = test::oracle_y(block, pg.ranks()).size();
    }
    std::stable_sort(dests.begin(), dests.end(), [&](std::uint32_t a, std::uint32_t b) {
      return length[a] > length[b];
    });
    YSlice reused;
    for (const std::uint32_t dest : dests) {
      pg.compute_y(dest, 0.0, reused);
      expect_oracle(reused, dest);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EngineWiring, MatchesNaiveFilterAndOracleBlocks) {
  const auto hash_site = partition::make_hash_site_partitioner();
  const auto hash_url = partition::make_hash_url_partitioner();
  const auto random = partition::make_random_partitioner(5);
  std::size_t blocked_groups = 0;
  for (const partition::Partitioner* p : {hash_site.get(), hash_url.get(), random.get()}) {
    for (const std::uint32_t k : {1u, 7u, 64u}) check_wiring(*p, k, blocked_groups);
  }
  // The push check covers tagged block entries: the whole crawl (K = 1)
  // has rows longer than kBlockEdges.
  EXPECT_GT(blocked_groups, 0u);
  // The run covers groups with no pages, which own no blocks and receive
  // none: 100 sites hashed onto 64 groups miss some.
  const auto sites_at_64 = hash_site->partition(crawl(), 64);
  std::vector<std::uint32_t> sizes(64, 0);
  for (const std::uint32_t grp : sites_at_64) ++sizes[grp];
  EXPECT_NE(std::count(sizes.begin(), sizes.end(), 0u), 0);
}

}  // namespace
}  // namespace p2prank::engine
