#include "tools/cli.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cost/capacity_model.hpp"
#include "engine/checkpoint.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/components.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "rank/centralized.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::tools {

namespace {

constexpr std::string_view kUsage =
    "usage: p2prank <command> [--key=value ...]\n"
    "\n"
    "commands:\n"
    "  generate --out=FILE [--pages=N] [--sites=N] [--seed=N]\n"
    "      write a synthetic crawl with the paper dataset's statistics\n"
    "  stats --crawl=FILE [--sinks]\n"
    "      structural statistics (+ rank-sink report with --sinks)\n"
    "  rank --crawl=FILE [--alpha=0.85] [--top=20] [--checkpoint=FILE]\n"
    "      centralized open-system PageRank; prints top pages and/or\n"
    "      writes a url/rank checkpoint\n"
    "  simulate --crawl=FILE [--k=16] [--algorithm=dpr1|dpr2] [--p=1.0]\n"
    "           [--t1=0] [--t2=6] [--t-end=60] [--partition=site|url|random]\n"
    "           [--warm=CHECKPOINT] [--seed=N]\n"
    "      run the distributed engine and report the convergence series\n"
    "  plan [--pages=3e9-ish] [--rankers=1000] [--bisection-mbps=100]\n"
    "      Section 4.5 capacity planning\n";

int cmd_generate(util::Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.get<std::string>("out", "");
  auto cfg = graph::google2002_config(flags.get<std::uint32_t>("pages", 50000),
                                      flags.get<std::uint64_t>("seed", 42));
  cfg.num_sites = flags.get<std::uint32_t>("sites", cfg.num_sites);
  flags.finish();
  if (path.empty()) {
    err << "generate: --out=FILE is required\n";
    return 2;
  }
  const auto g = graph::generate_synthetic_web(cfg);
  graph::save_graph_file(g, path);
  out << "wrote " << g.num_pages() << " pages, " << g.num_links()
      << " internal + " << g.num_external_links() << " external links to "
      << path << '\n';
  return 0;
}

int cmd_stats(util::Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.get<std::string>("crawl", "");
  const bool report_sinks = flags.flag("sinks");
  flags.finish();
  if (path.empty()) {
    err << "stats: --crawl=FILE is required\n";
    return 2;
  }
  const auto g = graph::load_graph_file(path);
  graph::print_stats(graph::compute_stats(g), out);
  if (report_sinks) {
    const auto sinks = graph::find_rank_sinks(g);
    out << "rank sinks:         " << sinks.size() << '\n';
    for (std::size_t i = 0; i < std::min<std::size_t>(sinks.size(), 5); ++i) {
      out << "  sink of " << sinks[i].size() << " pages, e.g. "
          << g.url(sinks[i][0]) << '\n';
    }
  }
  return 0;
}

int cmd_rank(util::Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.get<std::string>("crawl", "");
  const double alpha = flags.get<double>("alpha", 0.85);
  const auto top_k = flags.get<std::uint64_t>("top", 20);
  const auto ckpt = flags.get<std::string>("checkpoint", "");
  flags.finish();
  if (path.empty()) {
    err << "rank: --crawl=FILE is required\n";
    return 2;
  }
  const auto g = graph::load_graph_file(path);
  auto& pool = util::ThreadPool::shared();
  const auto ranks = engine::open_system_reference(g, alpha, pool);

  if (top_k > 0) {
    util::Table table({"#", "page", "rank"});
    const auto top = rank::top_pages(ranks, top_k);
    for (std::size_t i = 0; i < top.size(); ++i) {
      table.row()
          .cell(static_cast<std::uint64_t>(i + 1))
          .cell(g.url(top[i]))
          .cell(ranks[top[i]], 6);
    }
    table.print(out, "Top pages (open-system PageRank, alpha=" +
                         util::format_double(alpha, 2) + ")");
  }
  if (!ckpt.empty()) {
    engine::save_ranks_file(g, ranks, ckpt);
    out << "checkpoint written to " << ckpt << '\n';
  }
  return 0;
}

int cmd_simulate(util::Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.get<std::string>("crawl", "");
  const auto k = flags.get<std::uint32_t>("k", 16);
  const auto strategy = flags.get<std::string>("partition", "site");
  const auto algorithm = flags.get<std::string>("algorithm", "dpr1");
  engine::EngineOptions opts;
  opts.alpha = flags.get<double>("alpha", 0.85);
  opts.delivery_probability = flags.get<double>("p", 1.0);
  opts.t1 = flags.get<double>("t1", 0.0);
  opts.t2 = flags.get<double>("t2", 6.0);
  opts.seed = flags.get<std::uint64_t>("seed", 42);
  const auto warm = flags.get<std::string>("warm", "");
  const double t_end = flags.get<double>("t-end", 60.0);
  flags.finish();
  if (path.empty()) {
    err << "simulate: --crawl=FILE is required\n";
    return 2;
  }
  const auto g = graph::load_graph_file(path);

  std::vector<std::uint32_t> assignment;
  if (strategy == "site") {
    assignment = partition::make_hash_site_partitioner()->partition(g, k);
  } else if (strategy == "url") {
    assignment = partition::make_hash_url_partitioner()->partition(g, k);
  } else if (strategy == "random") {
    assignment = partition::make_random_partitioner(opts.seed)->partition(g, k);
  } else {
    err << "simulate: unknown --partition '" << strategy << "'\n";
    return 2;
  }

  if (algorithm == "dpr1") {
    opts.algorithm = engine::Algorithm::kDPR1;
  } else if (algorithm == "dpr2") {
    opts.algorithm = engine::Algorithm::kDPR2;
  } else {
    err << "simulate: unknown --algorithm '" << algorithm << "'\n";
    return 2;
  }

  auto& pool = util::ThreadPool::shared();
  const auto reference = engine::open_system_reference(g, opts.alpha, pool);
  engine::DistributedRanking sim(g, assignment, k, opts, pool);
  sim.set_reference(reference);
  if (!warm.empty()) {
    const auto loaded = engine::load_ranks_file(g, warm);
    sim.warm_start(loaded.ranks);
    out << "warm start: " << loaded.matched << " pages matched, "
        << loaded.skipped << " skipped\n";
  }

  const auto samples = sim.run(t_end, std::max(1.0, t_end / 15.0));
  util::Table table({"time", "rel err %", "avg rank", "outer steps"});
  for (const auto& s : samples) {
    table.row()
        .cell(s.time, 1)
        .cell(s.relative_error * 100.0, 4)
        .cell(s.average_rank, 4)
        .cell(s.total_outer_steps);
  }
  table.print(out, algorithm + " over " + std::to_string(k) + " rankers (" +
                       strategy + " partition)");
  const engine::EngineCounters c = sim.counters();
  out << "messages " << c.messages_sent << " (lost " << c.messages_lost
      << "), records " << c.records_sent << ", final rel err "
      << sim.relative_error_now() << '\n';
  return 0;
}

int cmd_plan(util::Flags& flags, std::ostream& out, std::ostream& err) {
  cost::CostParameters p;
  p.total_pages = flags.get<double>("pages", 3e9);
  p.record_bytes = flags.get<double>("record-bytes", 100.0);
  const double mbps = flags.get<double>("bisection-mbps", 100.0);
  p.bisection_bandwidth = mbps * 1e6;
  const double n = flags.get<double>("rankers", 1000.0);
  flags.finish();
  // Checked before the report starts, so a bad value prints nothing on
  // stdout: every figure below scales with or divides by these.
  const std::pair<std::string_view, double> positive[] = {
      {"pages", p.total_pages}, {"record-bytes", p.record_bytes},
      {"bisection-mbps", mbps}};
  for (const auto& [name, value] : positive) {
    if (!(value > 0.0)) {
      err << "plan: --" << name << " must be positive, got " << value << '\n';
      return 2;
    }
  }
  if (!(n >= 1.0)) {
    err << "plan: --rankers must be at least 1, got " << n << '\n';
    return 2;
  }
  const double h = std::max(1.0, cost::pastry_expected_hops(n));

  const auto dt = cost::direct_cost(n, h, p);
  const auto it = cost::indirect_cost(n, h, p);
  util::Table table({"quantity", "direct", "indirect"});
  table.row()
      .cell("bytes/iteration")
      .cell(util::format_bytes(dt.bytes))
      .cell(util::format_bytes(it.bytes));
  table.row()
      .cell("messages/iteration")
      .cell(static_cast<std::uint64_t>(dt.messages))
      .cell(static_cast<std::uint64_t>(it.messages));
  table.print(out, "Capacity plan: " + util::format_double(n, 0) + " rankers, " +
                       util::format_double(p.total_pages, 0) + " pages");
  out << "min iteration interval (bisection budget): "
      << util::format_seconds(cost::min_iteration_interval(h, p)) << '\n'
      << "node bandwidth needed at that interval:    "
      << util::format_bytes(cost::min_node_bandwidth(
             n, h, cost::min_iteration_interval(h, p), p))
      << "/s\n";
  return 0;
}

}  // namespace

int run_cli(std::span<const std::string> args, std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  util::Flags flags(args.subspan(1));
  if (flags.help()) {
    out << kUsage;
    return 0;
  }
  try {
    if (command == "generate") return cmd_generate(flags, out, err);
    if (command == "stats") return cmd_stats(flags, out, err);
    if (command == "rank") return cmd_rank(flags, out, err);
    if (command == "simulate") return cmd_simulate(flags, out, err);
    if (command == "plan") return cmd_plan(flags, out, err);
  } catch (const util::FlagError& e) {
    err << command << ": " << e.what() << '\n' << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return 1;
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace p2prank::tools
