// Table 1 — "The minimal time interval between iterations and the minimal
// node bottleneck bandwidth needed for distributed page ranking":
// W = 3 billion pages, l = 100 B/record, 100 MB/s bisection budget, Pastry
// hop counts h = 2.5 / 3.5 / 4.0 at N = 1e3 / 1e4 / 1e5.
//
// Paper's numbers: 7500 s / 10500 s / 12000 s and 100 / 10 / 1 KB/s. This
// table is purely analytic, so it must match exactly.
#include <iostream>

#include "cost/capacity_model.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: table1_capacity [--pages=3000000000] [--record-bytes=100] "
                    "[--bisection-mbps=100]\n");
  cost::CostParameters params;
  params.total_pages =
      static_cast<double>(flags.get<std::uint64_t>("pages", 3'000'000'000ULL));
  params.record_bytes = flags.get<double>("record-bytes", 100.0);
  params.bisection_bandwidth = flags.get<double>("bisection-mbps", 100.0) * 1e6;
  flags.finish();

  std::cout << "table1: capacity model (Section 4.5)\n"
            << "W=" << params.total_pages << " pages, l=" << params.record_bytes
            << " B/record, bisection budget "
            << util::format_bytes(params.bisection_bandwidth) << "/s\n\n";

  util::Table table({"# of Page Rankers", "hops h", "Time per Iteration",
                     "Bottleneck Bandwidth Needed"});
  for (const auto& row : cost::table1(params)) {
    table.row()
        .cell(row.num_rankers)
        .cell(row.hops, 1)
        .cell(std::to_string(static_cast<long long>(row.min_interval_seconds)) +
              " s (" + util::format_seconds(row.min_interval_seconds) + ")")
        .cell(util::format_bytes(row.min_node_bandwidth) + "/s");
  }
  table.print(std::cout, "Table 1 — minimal iteration interval & node bandwidth");

  const auto rows = cost::table1(params);
  const bool matches = rows.size() == 3 && rows[0].min_interval_seconds == 7500.0 &&
                       rows[1].min_interval_seconds == 10500.0 &&
                       rows[2].min_interval_seconds == 12000.0 &&
                       rows[0].min_node_bandwidth == 100e3 &&
                       rows[1].min_node_bandwidth == 10e3 &&
                       rows[2].min_node_bandwidth == 1e3;
  std::cout << "\npaper check (defaults): "
            << (matches ? "matches Table 1 exactly"
                        : "differs (non-default parameters?)")
            << '\n'
            << "\"at least 2 hours between iterations\": "
            << (rows[0].min_interval_seconds >= 7200.0 ? "yes" : "NO") << '\n';
  return 0;
}
