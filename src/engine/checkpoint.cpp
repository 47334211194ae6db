#include "engine/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace p2prank::engine {

void save_ranks(const graph::WebGraph& g, std::span<const double> ranks,
                std::ostream& out) {
  if (ranks.size() != g.num_pages()) {
    throw std::invalid_argument("save_ranks: rank vector size mismatch");
  }
  out << "# p2prank checkpoint v1: " << g.num_pages() << " pages\n";
  out << std::setprecision(17);
  for (graph::PageId p = 0; p < g.num_pages(); ++p) {
    out << g.url(p) << ' ' << ranks[p] << '\n';
  }
}

void save_ranks_file(const graph::WebGraph& g, std::span<const double> ranks,
                     const std::string& path) {
  // Write-then-rename so a crash mid-save can never leave a truncated file
  // at `path`: readers see either the old checkpoint or the complete new
  // one. rename(2) is atomic within a filesystem and the temp file lives
  // next to the target, so it cannot cross a mount boundary.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("save_ranks_file: cannot open " + tmp);
    save_ranks(g, ranks, out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("save_ranks_file: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_ranks_file: cannot rename " + tmp + " to " +
                             path);
  }
}

LoadedRanks load_ranks(const graph::WebGraph& g, std::istream& in) {
  LoadedRanks loaded;
  loaded.ranks.assign(g.num_pages(), 0.0);
  std::string line;
  std::size_t line_no = 0;
  std::size_t entries = 0;
  std::size_t expected = 0;  // 0 = no v1 header seen (plain "url rank" file)
  // save_ranks writes each URL once; a repeat would let the later line
  // silently win (and count twice against the header).
  std::vector<char> seen(g.num_pages(), 0);
  std::unordered_set<std::string> seen_unmatched;
  constexpr std::string_view kHeader = "# p2prank checkpoint v1: ";
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      // The v1 header declares the entry count; remember it so a file cut
      // off mid-write (crash during save) is rejected instead of silently
      // warm-starting half the crawl from zero.
      if (line.rfind(kHeader, 0) == 0) {
        std::istringstream count(line.substr(kHeader.size()));
        count >> expected;
      }
      continue;
    }
    std::istringstream fields(line);
    std::string url;
    double rank = 0.0;
    std::string extra;
    if (!(fields >> url >> rank) || (fields >> extra)) {
      throw std::runtime_error("load_ranks: malformed line " +
                               std::to_string(line_no));
    }
    if (!std::isfinite(rank) || rank < 0.0) {
      throw std::runtime_error("load_ranks: corrupt rank on line " +
                               std::to_string(line_no) +
                               " (must be finite and non-negative)");
    }
    const auto p = g.find(url);
    if (p ? seen[*p] != 0 : !seen_unmatched.insert(url).second) {
      throw std::runtime_error("load_ranks: repeated url '" + url + "' on line " +
                               std::to_string(line_no));
    }
    ++entries;
    if (p) {
      seen[*p] = 1;
      loaded.ranks[*p] = rank;
      ++loaded.matched;
    } else {
      ++loaded.skipped;
    }
  }
  if (expected != 0 && entries != expected) {
    throw std::runtime_error(
        "load_ranks: truncated checkpoint: header declares " +
        std::to_string(expected) + " entries, found " + std::to_string(entries));
  }
  return loaded;
}

LoadedRanks load_ranks_file(const graph::WebGraph& g, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_ranks_file: cannot open " + path);
  return load_ranks(g, in);
}

}  // namespace p2prank::engine
