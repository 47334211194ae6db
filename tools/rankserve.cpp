// rankserve — co-simulated rank serving demo + smoke driver (DESIGN.md §12).
//
//   rankserve                              # defaults: 2000 pages, 10k clients
//   rankserve --pages 5000 --clients 20000 --duration 100
//   rankserve --metrics-out serve_metrics.json --trace-out serve_trace.json
//
// Builds a synthetic web graph, runs the distributed engine with a
// SnapshotStore attached (epoch-swapped snapshots every --interval of
// virtual time), and drives the closed-loop load generator against the live
// store — simulated clients issuing Zipf-keyed point-rank and top-K queries
// in the same virtual timeline the engine sweeps in. It is the serving run
// of experiment.hpp that bench_report --serve measures, here under the
// load-mix flags below and with its metrics and trace written out. Prints
// QPS and p50/p99 latency and the serving-contract accounting; exits 1 on
// any torn-epoch read (the contract requires exactly zero), if nothing was
// served, or on a bad setup such as --k 0.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "util/timer.hpp"

namespace {

using namespace p2prank;

struct Options {
  std::uint32_t pages = 2000;
  std::uint64_t seed = 42;
  std::uint32_t k = 16;
  double alpha = 0.85;
  double duration = 60.0;       // virtual time to co-simulate
  double interval = 1.0;        // snapshot publish cadence
  std::size_t top_k_capacity = 16;
  serve::LoadGenOptions load;
  std::string metrics_out;
  std::string trace_out;
  bool quiet = false;
};

int usage(std::ostream& err) {
  err << "usage: rankserve [--pages N] [--seed S] [--k K] [--alpha A]\n"
         "                 [--duration T] [--interval T] [--capacity K]\n"
         "                 [--clients C] [--servers S] [--think T]\n"
         "                 [--topk K] [--topk-fraction F] [--zipf S]\n"
         "                 [--load-seed S] [--metrics-out FILE]\n"
         "                 [--trace-out FILE] [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.load.clients = 10000;
  opts.load.servers = 64;
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto need_value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size()) {
      std::cerr << "missing value for " << args[i] << '\n';
      std::exit(usage(std::cerr));
    }
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    try {
      if (a == "--pages") {
        opts.pages = static_cast<std::uint32_t>(std::stoul(need_value(i)));
      } else if (a == "--seed") {
        opts.seed = std::stoull(need_value(i));
      } else if (a == "--k") {
        opts.k = static_cast<std::uint32_t>(std::stoul(need_value(i)));
      } else if (a == "--alpha") {
        opts.alpha = std::stod(need_value(i));
      } else if (a == "--duration") {
        opts.duration = std::stod(need_value(i));
      } else if (a == "--interval") {
        opts.interval = std::stod(need_value(i));
      } else if (a == "--capacity") {
        opts.top_k_capacity = std::stoul(need_value(i));
      } else if (a == "--clients") {
        opts.load.clients =
            static_cast<std::uint32_t>(std::stoul(need_value(i)));
      } else if (a == "--servers") {
        opts.load.servers =
            static_cast<std::uint32_t>(std::stoul(need_value(i)));
      } else if (a == "--think") {
        opts.load.think_mean = std::stod(need_value(i));
      } else if (a == "--topk") {
        opts.load.top_k = std::stoul(need_value(i));
      } else if (a == "--topk-fraction") {
        opts.load.topk_fraction = std::stod(need_value(i));
      } else if (a == "--zipf") {
        opts.load.zipf_exponent = std::stod(need_value(i));
      } else if (a == "--load-seed") {
        opts.load.seed = std::stoull(need_value(i));
      } else if (a == "--metrics-out") {
        opts.metrics_out = need_value(i);
      } else if (a == "--trace-out") {
        opts.trace_out = need_value(i);
      } else if (a == "--quiet") {
        opts.quiet = true;
      } else {
        std::cerr << "unknown argument: " << a << '\n';
        return usage(std::cerr);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << a << '\n';
      return usage(std::cerr);
    }
  }

  try {
    util::Stopwatch wall;
    auto& pool = util::ThreadPool::shared();
    const tools::Experiment e =
        tools::make_experiment(opts.pages, opts.seed, opts.k, opts.alpha, pool);
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    const tools::ServeRun run = tools::serve_run(
        e, opts.load, opts.interval, opts.top_k_capacity, opts.duration, pool,
        &metrics, opts.trace_out.empty() ? nullptr : &tracer);
    const serve::LoadGenReport& r = run.report;

    if (!opts.quiet) {
      std::cout << "graph: " << opts.pages << " pages, k=" << opts.k
                << "; clients=" << opts.load.clients << " servers="
                << opts.load.servers << " duration=" << opts.duration
                << " (virtual)\n"
                << "served " << r.completed << "/" << r.issued
                << " queries (point=" << r.point_queries << " topk="
                << r.topk_queries << ")\n"
                << "  qps=" << r.qps << " p50=" << r.p50 << " p99=" << r.p99
                << " max=" << r.max_latency << " max_queue_depth="
                << r.max_queue_depth << "\n"
                << "  snapshots=" << run.snapshots_published << " (reused "
                << run.buffer_reuses << " buffers), torn_reads="
                << r.torn_reads << " stale_reads=" << r.stale_reads
                << " unavailable=" << r.unavailable << "\n"
                << "  final relative error " << run.final_relative_error
                << ", " << wall.elapsed_seconds() << " s wall\n";
    }

    if (!opts.metrics_out.empty()) {
      std::ofstream out(opts.metrics_out);
      if (!out) throw std::runtime_error("cannot write " + opts.metrics_out);
      metrics.write_json(out);
      if (!opts.quiet) std::cout << "metrics written to " << opts.metrics_out << "\n";
    }
    if (!opts.trace_out.empty()) {
      std::ofstream out(opts.trace_out);
      if (!out) throw std::runtime_error("cannot write " + opts.trace_out);
      tracer.write_chrome_json(out);
      if (!opts.quiet) std::cout << "trace written to " << opts.trace_out << "\n";
    }

    if (r.torn_reads != 0) {
      std::cerr << "rankserve: FAIL — " << r.torn_reads
                << " torn-epoch read(s); the serving contract requires zero\n";
      return 1;
    }
    if (r.completed == 0) {
      std::cerr << "rankserve: FAIL — no queries completed\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rankserve: " << e.what() << "\n";
    return 1;
  }
}
