// Optional CSV export for the figure benches: pass --csv=PATH and the
// plotted series is also written as machine-readable CSV (the aligned text
// table remains on stdout either way).
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "util/table.hpp"

namespace p2prank::bench {

/// Write `table` to `path` as CSV when path is non-empty.
inline void maybe_write_csv(const util::Table& table, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for CSV output\n";
    return;
  }
  table.print_csv(out);
  std::cout << "(series also written to " << path << ")\n";
}

}  // namespace p2prank::bench
