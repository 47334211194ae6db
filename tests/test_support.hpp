// Shared fixtures for the p2prank test suite: tiny graphs with known
// closed-form ranks, helpers for building crawls inline, the naive
// y = A·x oracle the sweep kernels are checked against, the efferent-block
// oracle the engine's Y slices are checked against, and a byte splice for
// forging encodings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/web_graph.hpp"
#include "rank/link_matrix.hpp"

namespace p2prank::test {

/// Two pages linking to each other, same site.
///   a <-> b
/// Open-system fixed point (E = 1): R = β + α·R  =>  R(a) = R(b) = 1.
inline graph::WebGraph two_cycle() {
  graph::GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_link(c, a);
  return std::move(b).build();
}

/// Star: n leaves all pointing at one hub; hub dangling.
/// R(leaf) = β;  R(hub) = β + n·α·β.
inline graph::WebGraph star(int leaves) {
  graph::GraphBuilder b;
  const auto hub = b.add_page("s.edu/hub", "s.edu");
  for (int i = 0; i < leaves; ++i) {
    const auto leaf = b.add_page("s.edu/leaf" + std::to_string(i), "s.edu");
    b.add_link(leaf, hub);
  }
  return std::move(b).build();
}

/// Chain a0 -> a1 -> ... -> a_{n-1} across two sites (split at the middle).
inline graph::WebGraph chain(int n) {
  graph::GraphBuilder b;
  std::vector<graph::PageId> ids;
  for (int i = 0; i < n; ++i) {
    const std::string site = i < n / 2 ? "left.edu" : "right.edu";
    ids.push_back(b.add_page(site + "/p" + std::to_string(i), site));
  }
  for (int i = 0; i + 1 < n; ++i) b.add_link(ids[i], ids[i + 1]);
  return std::move(b).build();
}

/// A page with one internal and one external link: rank leaks.
///   a -> b (internal), a -> (uncrawled), b dangling.
inline graph::WebGraph leaky_pair() {
  graph::GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_external_link(a);
  return std::move(b).build();
}

/// y = A·x, one row at a time straight off the pull CSR: every edge u -> v
/// adds x[u]·α/d(u). A row is cut into blocks of LinkMatrix::kBlockEdges
/// edges; within a block edges alternate between two accumulators (even
/// edges in lane 0, odd in lane 1, summed at the end), and the block sums
/// are added in block order starting from 0.0 — the order the kernels use —
/// so a kernel's y must equal this bit for bit.
inline std::vector<double> naive_multiply(const rank::LinkMatrix& m,
                                          std::span<const double> x) {
  constexpr std::size_t kBlock = rank::LinkMatrix::kBlockEdges;
  const auto weight = m.source_weights();
  std::vector<double> y(m.dimension());
  for (std::size_t v = 0; v < y.size(); ++v) {
    const auto sources = m.row_sources(v);
    double row = 0.0;
    for (std::size_t first = 0; first < sources.size(); first += kBlock) {
      double lane[2] = {0.0, 0.0};
      for (std::size_t e = first; e < std::min(first + kBlock, sources.size()); ++e) {
        lane[(e - first) % 2] += x[sources[e]] * weight[sources[e]];
      }
      row += lane[0] + lane[1];
    }
    y[v] = row;
  }
  return y;
}

/// In-edges of the matrix's longest row: a fixture that means to test the
/// block path checks this is above LinkMatrix::kBlockEdges.
inline std::size_t longest_row(const rank::LinkMatrix& m) {
  std::size_t longest = 0;
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    longest = std::max(longest, m.row_sources(v).size());
  }
  return longest;
}

/// The push CSR the matrix must hold, from its pull rows: per source, one
/// entry per edge, rows ascending. An edge into a row of at most kBlockEdges
/// in-edges holds the row; an edge into a longer row holds kBlockTag | the
/// block its pull position falls in, blocks numbered from 0 over the longer
/// rows in row order, kBlockEdges positions each.
inline std::vector<std::vector<std::uint32_t>> push_oracle(const rank::LinkMatrix& m) {
  constexpr std::size_t kBlock = rank::LinkMatrix::kBlockEdges;
  std::vector<std::vector<std::uint32_t>> targets(m.dimension());
  std::uint32_t next_block = 0;
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    const auto sources = m.row_sources(v);
    const bool blocked = sources.size() > kBlock;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      targets[sources[i]].push_back(
          blocked ? rank::LinkMatrix::kBlockTag |
                        (next_block + static_cast<std::uint32_t>(i / kBlock))
                  : static_cast<std::uint32_t>(v));
    }
    if (blocked) next_block += static_cast<std::uint32_t>((sources.size() + kBlock - 1) / kBlock);
  }
  return targets;
}

/// One group's cut edges into one destination group, in summation order.
struct OracleBlock {
  std::vector<std::uint32_t> dst_local;
  std::vector<std::uint32_t> src_local;
  std::vector<double> weight;  // α/d(u)
};

/// The efferent blocks of `group` under `assignment`, keyed by destination
/// group, built as the engine first built them: every cut edge u -> v of
/// the crawl appended to its block source-major (u ascending, then
/// out_links(u) in CSR order), then each block's edge indices std::sort-ed
/// by destination page. The order that sort leaves among edges into one
/// page is the order compute_y must sum them in.
inline std::map<std::uint32_t, OracleBlock> oracle_efferents(
    const graph::WebGraph& g, std::span<const std::uint32_t> assignment,
    std::uint32_t group, double alpha) {
  std::vector<std::uint32_t> local(assignment.size());
  std::map<std::uint32_t, std::uint32_t> next;
  for (std::size_t p = 0; p < assignment.size(); ++p) local[p] = next[assignment[p]]++;
  std::map<std::uint32_t, OracleBlock> appended;
  for (graph::PageId u = 0; u < g.num_pages(); ++u) {
    const auto d = g.out_degree(u);
    if (assignment[u] != group || d == 0) continue;
    const double weight = alpha / static_cast<double>(d);
    for (const graph::PageId v : g.out_links(u)) {
      if (assignment[v] == group) continue;
      OracleBlock& b = appended[assignment[v]];
      b.dst_local.push_back(local[v]);
      b.src_local.push_back(local[u]);
      b.weight.push_back(weight);
    }
  }
  std::map<std::uint32_t, OracleBlock> sorted;
  for (const auto& [dest, b] : appended) {
    std::vector<std::uint32_t> order(b.dst_local.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&b](std::uint32_t x, std::uint32_t y) {
      return b.dst_local[x] < b.dst_local[y];
    });
    OracleBlock& out = sorted[dest];
    for (const std::uint32_t i : order) {
      out.dst_local.push_back(b.dst_local[i]);
      out.src_local.push_back(b.src_local[i]);
      out.weight.push_back(b.weight[i]);
    }
  }
  return sorted;
}

/// Full Y slice of one oracle block: per destination page, ascending, the
/// sum of ranks[u]·α/d(u) over its edges in block order.
inline std::vector<std::pair<std::uint32_t, double>> oracle_y(
    const OracleBlock& b, std::span<const double> ranks) {
  std::vector<std::pair<std::uint32_t, double>> y;
  for (std::size_t i = 0; i < b.dst_local.size(); ++i) {
    if (y.empty() || y.back().first != b.dst_local[i]) y.emplace_back(b.dst_local[i], 0.0);
    y.back().second += ranks[b.src_local[i]] * b.weight[i];
  }
  return y;
}

/// `bytes` with the one byte at `at` replaced by `field` (e.g. a one-byte
/// varint respelled in a form its encoder never writes).
inline std::vector<std::uint8_t> splice(std::vector<std::uint8_t> bytes,
                                        std::size_t at,
                                        const std::vector<std::uint8_t>& field) {
  const auto pos = bytes.begin() + static_cast<std::ptrdiff_t>(at);
  bytes.insert(bytes.erase(pos), field.begin(), field.end());
  return bytes;
}

}  // namespace p2prank::test
