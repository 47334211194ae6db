// The standard experiment graph of the figure/table reproduction binaries.
#pragma once

#include <cstdint>

#include "graph/synthetic_web.hpp"
#include "util/flags.hpp"

namespace p2prank::bench {

/// The standard experiment crawl: google2002 statistics at a bench-friendly
/// scale (the paper's dataset is 1M pages; pass --pages=1000000 to match),
/// generated from --pages and --seed (default 42). It ends the flag reading:
/// read every other flag first, since the command line is checked
/// (Flags::finish) before the crawl is generated.
[[nodiscard]] inline graph::WebGraph experiment_graph(util::Flags& flags,
                                                      std::uint32_t default_pages) {
  const auto pages = flags.get<std::uint32_t>("pages", default_pages);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  flags.finish();
  return graph::generate_synthetic_web(graph::google2002_config(pages, seed));
}

}  // namespace p2prank::bench
