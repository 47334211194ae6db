// Scenario: capacity planning for a distributed page-ranking deployment
// (Section 4.5 as a command-line tool).
//
// Given a web size, a ranker count and bandwidth budgets, answers:
//   * how often can the rankers exchange scores (min iteration interval)?
//   * what per-node bottleneck bandwidth does that demand?
//   * should this deployment use direct or indirect transmission?
//
// Run:  ./capacity_planner [--pages=3000000000] [--rankers=1000]
//                          [--bisection-mbps=100] [--node-kbps=256]
//                          [--record-bytes=100] [--pastry-bits=4]
#include <cmath>
#include <iostream>

#include "cost/capacity_model.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: capacity_planner [--pages=3000000000] [--rankers=1000]\n"
                    "                        [--bisection-mbps=100] [--node-kbps=256]\n"
                    "                        [--record-bytes=100] [--pastry-bits=4]\n");
  cost::CostParameters p;
  p.total_pages = flags.get<double>("pages", 3e9);
  p.record_bytes = flags.get<double>("record-bytes", 100.0);
  p.bisection_bandwidth = flags.get<double>("bisection-mbps", 100.0) * 1e6;
  const double n = flags.get<double>("rankers", 1000.0);
  const double node_bw = flags.get<double>("node-kbps", 256.0) * 1e3;
  const int bits = flags.get<int>("pastry-bits", 4);
  flags.finish();

  const double h = std::max(1.0, cost::pastry_expected_hops(n, bits));
  std::cout << "capacity plan: W=" << p.total_pages << " pages over " << n
            << " rankers (Pastry b=" << bits << ", h~" << util::format_double(h, 2)
            << " hops)\n\n";

  // --- Per-iteration traffic, both schemes -----------------------------------
  const auto dt = cost::direct_cost(n, h, p);
  const auto it = cost::indirect_cost(n, h, p);
  util::Table traffic({"scheme", "bytes/iteration", "messages/iteration"});
  traffic.row()
      .cell("direct")
      .cell(util::format_bytes(dt.bytes))
      .cell(static_cast<std::uint64_t>(dt.messages));
  traffic.row()
      .cell("indirect")
      .cell(util::format_bytes(it.bytes))
      .cell(static_cast<std::uint64_t>(it.messages));
  traffic.print(std::cout, "Traffic per iteration (formulas 4.1-4.4)");

  // --- Constraints ------------------------------------------------------------
  const double t_bisection = cost::min_iteration_interval(h, p);
  const double t_node = it.bytes / (n * node_bw);
  const double t = std::max(t_bisection, t_node);
  std::cout << "\nConstraints (indirect transmission):\n"
            << "  internet bisection budget  -> T >= "
            << util::format_seconds(t_bisection) << '\n'
            << "  node bottleneck ("
            << util::format_bytes(node_bw) << "/s)  -> T >= "
            << util::format_seconds(t_node) << '\n'
            << "  => minimal iteration interval: " << util::format_seconds(t)
            << '\n'
            << "  => node bandwidth needed at that interval: "
            << util::format_bytes(cost::min_node_bandwidth(n, h, t, p)) << "/s\n";

  // --- Recommendation -----------------------------------------------------------
  const bool indirect_fewer_msgs = it.messages < dt.messages;
  const bool indirect_fewer_bytes = it.bytes < dt.bytes;
  std::cout << "\nRecommendation: ";
  if (indirect_fewer_msgs && indirect_fewer_bytes) {
    std::cout << "indirect transmission (fewer messages AND fewer bytes).\n";
  } else if (indirect_fewer_msgs) {
    std::cout << "indirect transmission — it costs "
              << util::format_double(it.bytes / dt.bytes, 2)
              << "x the bytes but sends "
              << util::format_double(dt.messages / it.messages, 0)
              << "x fewer messages; per-message overhead (lookups, kernel\n"
                 "crossings) dominates at this scale (Section 4.4).\n";
  } else {
    std::cout << "direct transmission (deployment small enough that one-to-one\n"
                 "sends are cheapest).\n";
  }
  std::cout << "Fewer-byte crossover for these parameters: N ~ "
            << cost::byte_crossover_n(p, bits) << " rankers.\n";
  return 0;
}
