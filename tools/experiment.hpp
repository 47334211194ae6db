// The engine-level experiment behind bench_report's engine modes and
// rankserve: the google2002 crawl, K rankers over a round-robin partition,
// the centralized open-system reference, and the closed-loop serving run
// that co-simulates a DPR2 engine publishing into a SnapshotStore with the
// load generator querying it (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::tools {

/// The google2002 crawl of `seed`, its partition over k rankers and the
/// centralized reference ranks (`make_experiment` builds all three).
struct Experiment {
  std::uint64_t seed = 0;
  double alpha = 0.0;
  std::uint32_t k = 0;
  graph::WebGraph graph;
  /// Page p belongs to ranker p % k: deterministic, balanced and independent
  /// of the partition library, since these runs measure channels,
  /// instrumentation, serving and recovery rather than partition quality.
  std::vector<std::uint32_t> assignment;
  std::vector<double> reference;

  /// Crawled plus external out-links: the sum of every page's out-degree.
  [[nodiscard]] std::size_t edges() const {
    return graph.num_links() + graph.num_external_links();
  }
};

inline Experiment make_experiment(std::uint32_t pages, std::uint64_t seed,
                                  std::uint32_t k, double alpha,
                                  util::ThreadPool& pool) {
  if (k == 0) throw std::invalid_argument("--k must be at least 1");
  Experiment e;
  e.seed = seed;
  e.alpha = alpha;
  e.k = k;
  e.graph = graph::generate_synthetic_web(graph::google2002_config(pages, seed));
  e.assignment.resize(e.graph.num_pages());
  for (std::uint32_t p = 0; p < e.graph.num_pages(); ++p) e.assignment[p] = p % k;
  e.reference = engine::open_system_reference(e.graph, alpha, pool);
  return e;
}

/// The serving engine: DPR2 under its own seed derived from the graph's.
inline engine::EngineOptions serving_engine_options(const Experiment& e) {
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.alpha = e.alpha;
  eo.seed = e.seed ^ 0x5e57e0ULL;
  return eo;
}

/// What one closed-loop serving run leaves behind. `stream` and `snapshot`
/// (the final snapshot, serialized) are filled only when the load records
/// its stream: they exist for byte comparisons between runs.
struct ServeRun {
  serve::LoadGenReport report;
  std::string stream;
  std::string snapshot;
  std::uint64_t snapshots_published = 0;
  std::uint64_t buffer_reuses = 0;
  double final_relative_error = 0.0;
};

/// The serving engine publishes into a SnapshotStore indexing the top
/// `top_k_capacity` pages every `snapshot_interval` of virtual time, while
/// the load generator queries the store; the two advance in turns, one
/// slice of virtual time each, up to `duration`. With `metrics`, the serve.*
/// counters and the four load gauges are set at the end.
inline ServeRun serve_run(const Experiment& e, const serve::LoadGenOptions& load,
                          double snapshot_interval, std::size_t top_k_capacity,
                          double duration, util::ThreadPool& pool,
                          obs::MetricsRegistry* metrics = nullptr,
                          obs::Tracer* tracer = nullptr) {
  serve::SnapshotStore store(top_k_capacity);
  engine::EngineOptions eo = serving_engine_options(e);
  eo.snapshot_sink = &store;
  eo.snapshot_interval = snapshot_interval;
  engine::DistributedRanking sim(e.graph, e.assignment, e.k, eo, pool);
  sim.set_reference(e.reference);
  serve::LoadGenerator gen(store, e.graph.num_pages(), load, metrics, tracer);

  constexpr double kSlice = 1.0;
  for (double t = kSlice; t <= duration + 1e-9; t += kSlice) {
    (void)sim.run(t, kSlice);
    gen.run_until(t);
  }

  ServeRun out;
  out.report = gen.report();
  out.snapshots_published = store.published();
  out.buffer_reuses = store.buffer_reuses();
  out.final_relative_error = sim.relative_error_now();
  if (load.record_stream) {
    out.stream = gen.stream_log();
    std::ostringstream snap;
    if (const auto s = store.acquire()) s->serialize(snap);
    out.snapshot = snap.str();
  }
  if (metrics != nullptr) {
    serve::export_serve_metrics(store, gen.server(), *metrics);
    metrics->gauge(obs::names::kServeQps) = out.report.qps;
    metrics->gauge(obs::names::kServeLatencyP50) = out.report.p50;
    metrics->gauge(obs::names::kServeLatencyP99) = out.report.p99;
    metrics->gauge(obs::names::kServeMaxQueueDepth) =
        static_cast<double>(out.report.max_queue_depth);
  }
  return out;
}

}  // namespace p2prank::tools
