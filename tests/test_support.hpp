// Shared fixtures for the p2prank test suite: tiny graphs with known
// closed-form ranks, helpers for building crawls inline, the naive
// y = A·x oracle the sweep kernels are checked against, and a byte splice
// for forging encodings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
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
/// adds x[u]·α/d(u). Edges alternate between two accumulators (even edges
/// of a row in lane 0, odd in lane 1, summed at the end) — the order the
/// kernels use — so a kernel's y must equal this bit for bit.
inline std::vector<double> naive_multiply(const rank::LinkMatrix& m,
                                          std::span<const double> x) {
  const auto weight = m.source_weights();
  std::vector<double> y(m.dimension());
  for (std::size_t v = 0; v < y.size(); ++v) {
    const auto sources = m.row_sources(v);
    double lane[2] = {0.0, 0.0};
    for (std::size_t e = 0; e < sources.size(); ++e) {
      lane[e % 2] += x[sources[e]] * weight[sources[e]];
    }
    y[v] = lane[0] + lane[1];
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
