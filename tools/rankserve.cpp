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

#include "experiment.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace {

using namespace p2prank;

constexpr std::string_view kUsage =
    "usage: rankserve [--pages N] [--seed S] [--k K] [--alpha A]\n"
    "                 [--duration T] [--interval T] [--capacity K]\n"
    "                 [--clients C] [--servers S] [--think T]\n"
    "                 [--topk K] [--topk-fraction F] [--zipf S]\n"
    "                 [--load-seed S] [--metrics-out FILE]\n"
    "                 [--trace-out FILE] [--quiet]\n";

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, kUsage);
  const auto pages = flags.get<std::uint32_t>("pages", 2000);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto k = flags.get<std::uint32_t>("k", 16);
  const double alpha = flags.get<double>("alpha", 0.85);
  const double duration = flags.get<double>("duration", 60.0);  // virtual time
  const double interval = flags.get<double>("interval", 1.0);  // publish cadence
  const auto top_k_capacity = flags.get<std::uint64_t>("capacity", 16);
  serve::LoadGenOptions load;
  load.clients = flags.get<std::uint32_t>("clients", 10000);
  load.servers = flags.get<std::uint32_t>("servers", 64);
  load.think_mean = flags.get<double>("think", load.think_mean);
  load.top_k = flags.get<std::uint64_t>("topk", load.top_k);
  load.topk_fraction = flags.get<double>("topk-fraction", load.topk_fraction);
  load.zipf_exponent = flags.get<double>("zipf", load.zipf_exponent);
  load.seed = flags.get<std::uint64_t>("load-seed", load.seed);
  const auto metrics_out = flags.get<std::string>("metrics-out", "");
  const auto trace_out = flags.get<std::string>("trace-out", "");
  const bool quiet = flags.flag("quiet");
  flags.finish();

  try {
    util::Stopwatch wall;
    auto& pool = util::ThreadPool::shared();
    const tools::Experiment e =
        tools::make_experiment(pages, seed, k, alpha, pool);
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    const tools::ServeRun run =
        tools::serve_run(e, load, interval, top_k_capacity, duration, pool, &metrics,
                         trace_out.empty() ? nullptr : &tracer);
    const serve::LoadGenReport& r = run.report;

    if (!quiet) {
      std::cout << "graph: " << pages << " pages, k=" << k
                << "; clients=" << load.clients << " servers="
                << load.servers << " duration=" << duration
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

    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) throw std::runtime_error("cannot write " + metrics_out);
      metrics.write_json(out);
      if (!quiet) std::cout << "metrics written to " << metrics_out << "\n";
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) throw std::runtime_error("cannot write " + trace_out);
      tracer.write_chrome_json(out);
      if (!quiet) std::cout << "trace written to " << trace_out << "\n";
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
