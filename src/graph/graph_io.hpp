// Serialization of WebGraph to/from a text crawl format and a compact
// binary format.
//
// Text format (line-oriented, '#' comments allowed):
//   P <url> <site>          -- declare a crawled page
//   L <from_url> <to_url>   -- link; target may be any URL (uncrawled
//                              targets become external links)
//   X <url> <count>         -- `count` external links from url (compact
//                              form; count must be >= 1, matching what
//                              save_graph emits)
// Records are exactly three tokens; trailing tokens are a format error
// (they are almost always a mangled URL that would silently change the
// graph). The text form stays diffable and hand-editable for tests.
//
// The binary format ("p2pgrb1") is a direct dump of the canonical CSR:
// length-prefixed site names and URLs, raw site-id array, then per-page
// varint external counts and delta-varint sorted out-rows. Loading rebuilds
// the in-CSR and indexes but never re-parses URLs or re-sorts links, which
// is what lets bench_report reload multi-million-page synthetic webs in
// seconds (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "graph/web_graph.hpp"

namespace p2prank::graph {

/// Write the graph in the text crawl format.
void save_graph(const WebGraph& g, std::ostream& out);
void save_graph_file(const WebGraph& g, const std::string& path);

/// Parse the text crawl format. Throws std::runtime_error on malformed
/// input (with a line number in the message).
[[nodiscard]] WebGraph load_graph(std::istream& in);
[[nodiscard]] WebGraph load_graph_file(const std::string& path);

/// Write the graph in the binary CSR format.
void save_graph_binary(const WebGraph& g, std::ostream& out);
void save_graph_binary_file(const WebGraph& g, const std::string& path);

/// Parse the binary CSR format from bytes in memory: the one p2pgrb1
/// decoder. Throws std::runtime_error on a bad magic, truncated input, CSR
/// that violates the canonical-form invariants, or a page table that
/// repeats a URL or a site name (which find(), the text format and
/// checkpoints could not tell apart).
[[nodiscard]] WebGraph load_graph_binary(std::span<const std::uint8_t> bytes);
/// The same from a stream, copied whole into memory first.
[[nodiscard]] WebGraph load_graph_binary(std::istream& in);
/// The same from a file, read once into a buffer of the file's size.
[[nodiscard]] WebGraph load_graph_binary_file(const std::string& path);

}  // namespace p2prank::graph
