#include "tools/cli.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
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

/// Parsed --key=value flags (anything else is an error).
class Args {
 public:
  static bool parse(std::span<const std::string> args, Args& out, std::string& error) {
    for (const auto& arg : args) {
      if (!arg.starts_with("--")) {
        error = "unexpected argument '" + arg + "'";
        return false;
      }
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        out.values_[arg.substr(2)] = "true";
      } else {
        out.values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
    return true;
  }

  [[nodiscard]] std::string get(const std::string& key, std::string fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::move(fallback) : it->second;
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto path = args.get("out", "");
  if (path.empty()) {
    err << "generate: --out=FILE is required\n";
    return 2;
  }
  auto cfg = graph::google2002_config(
      static_cast<std::uint32_t>(args.get_u64("pages", 50000)),
      args.get_u64("seed", 42));
  cfg.num_sites = static_cast<std::uint32_t>(args.get_u64("sites", cfg.num_sites));
  const auto g = graph::generate_synthetic_web(cfg);
  graph::save_graph_file(g, path);
  out << "wrote " << g.num_pages() << " pages, " << g.num_links()
      << " internal + " << g.num_external_links() << " external links to "
      << path << '\n';
  return 0;
}

int cmd_stats(const Args& args, std::ostream& out, std::ostream& err) {
  const auto path = args.get("crawl", "");
  if (path.empty()) {
    err << "stats: --crawl=FILE is required\n";
    return 2;
  }
  const auto g = graph::load_graph_file(path);
  graph::print_stats(graph::compute_stats(g), out);
  if (args.has("sinks")) {
    const auto sinks = graph::find_rank_sinks(g);
    out << "rank sinks:         " << sinks.size() << '\n';
    for (std::size_t i = 0; i < std::min<std::size_t>(sinks.size(), 5); ++i) {
      out << "  sink of " << sinks[i].size() << " pages, e.g. "
          << g.url(sinks[i][0]) << '\n';
    }
  }
  return 0;
}

int cmd_rank(const Args& args, std::ostream& out, std::ostream& err) {
  const auto path = args.get("crawl", "");
  if (path.empty()) {
    err << "rank: --crawl=FILE is required\n";
    return 2;
  }
  const auto g = graph::load_graph_file(path);
  const double alpha = args.get_double("alpha", 0.85);
  auto& pool = util::ThreadPool::shared();
  const auto ranks = engine::open_system_reference(g, alpha, pool);

  const auto top_k = args.get_u64("top", 20);
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
  const auto ckpt = args.get("checkpoint", "");
  if (!ckpt.empty()) {
    engine::save_ranks_file(g, ranks, ckpt);
    out << "checkpoint written to " << ckpt << '\n';
  }
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto path = args.get("crawl", "");
  if (path.empty()) {
    err << "simulate: --crawl=FILE is required\n";
    return 2;
  }
  const auto g = graph::load_graph_file(path);
  const auto k = static_cast<std::uint32_t>(args.get_u64("k", 16));
  const auto strategy = args.get("partition", "site");

  std::vector<std::uint32_t> assignment;
  if (strategy == "site") {
    assignment = partition::make_hash_site_partitioner()->partition(g, k);
  } else if (strategy == "url") {
    assignment = partition::make_hash_url_partitioner()->partition(g, k);
  } else if (strategy == "random") {
    assignment =
        partition::make_random_partitioner(args.get_u64("seed", 42))->partition(g, k);
  } else {
    err << "simulate: unknown --partition '" << strategy << "'\n";
    return 2;
  }

  engine::EngineOptions opts;
  const auto algorithm = args.get("algorithm", "dpr1");
  if (algorithm == "dpr1") {
    opts.algorithm = engine::Algorithm::kDPR1;
  } else if (algorithm == "dpr2") {
    opts.algorithm = engine::Algorithm::kDPR2;
  } else {
    err << "simulate: unknown --algorithm '" << algorithm << "'\n";
    return 2;
  }
  opts.alpha = args.get_double("alpha", 0.85);
  opts.delivery_probability = args.get_double("p", 1.0);
  opts.t1 = args.get_double("t1", 0.0);
  opts.t2 = args.get_double("t2", 6.0);
  opts.seed = args.get_u64("seed", 42);

  auto& pool = util::ThreadPool::shared();
  const auto reference = engine::open_system_reference(g, opts.alpha, pool);
  engine::DistributedRanking sim(g, assignment, k, opts, pool);
  sim.set_reference(reference);
  if (const auto warm = args.get("warm", ""); !warm.empty()) {
    const auto loaded = engine::load_ranks_file(g, warm);
    sim.warm_start(loaded.ranks);
    out << "warm start: " << loaded.matched << " pages matched, "
        << loaded.skipped << " skipped\n";
  }

  const double t_end = args.get_double("t-end", 60.0);
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

int cmd_plan(const Args& args, std::ostream& out, std::ostream&) {
  cost::CostParameters p;
  p.total_pages = args.get_double("pages", 3e9);
  p.record_bytes = args.get_double("record-bytes", 100.0);
  p.bisection_bandwidth = args.get_double("bisection-mbps", 100.0) * 1e6;
  const double n = args.get_double("rankers", 1000.0);
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
  Args parsed;
  std::string error;
  if (!Args::parse(args.subspan(1), parsed, error)) {
    err << command << ": " << error << '\n' << kUsage;
    return 2;
  }
  try {
    if (command == "generate") return cmd_generate(parsed, out, err);
    if (command == "stats") return cmd_stats(parsed, out, err);
    if (command == "rank") return cmd_rank(parsed, out, err);
    if (command == "simulate") return cmd_simulate(parsed, out, err);
    if (command == "plan") return cmd_plan(parsed, out, err);
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return 1;
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace p2prank::tools
