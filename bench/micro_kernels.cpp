// Google-benchmark microbenchmarks for the hot paths: the two rank-sweep
// kernels (dense fused and worklist), whole-graph open-system solves,
// overlay routing, partitioning, and the indirect-transmission pack/unpack
// loop. This is the one kernel micro-bench; select variants with
// --benchmark_filter.
//
// Custom flags (read through util::Flags and stripped before
// google-benchmark sees argv; a malformed value exits 2 naming the flag):
//   --threads 1,2,8,16     register every pooled variant once per pool size
//                          (each run records a "pool_threads" counter)
//   --determinism-check [--pages N]
//                          no benchmarks: solve the N-page graph dense and
//                          with the worklist kernel on 1-, 2- and 8-thread
//                          pools and exit 0 iff all six rank vectors are
//                          bitwise identical (the tier-bench-smoke gate); it
//                          exits 1 when the graph has no row longer than
//                          LinkMatrix::kBlockEdges, whose block path it
//                          would then leave untested
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/chord.hpp"
#include "overlay/pastry.hpp"
#include "partition/partitioner.hpp"
#include "rank/link_matrix.hpp"
#include "rank/open_system.hpp"
#include "transport/exchange.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace p2prank;

const graph::WebGraph& bench_graph() {
  static const graph::WebGraph g =
      graph::generate_synthetic_web(graph::google2002_config(50000, 42));
  return g;
}

// Hot-loop traffic per fused sweep (see DESIGN.md "Kernel layout" for the
// accounting): 12 bytes/edge (4B source index + 8B contribution gather)
// plus the per-row vector traffic.
std::int64_t fused_bytes(const rank::LinkMatrix& m) {
  return static_cast<std::int64_t>(m.num_entries()) * 12 +
         static_cast<std::int64_t>(m.dimension()) * 48;
}

// The pooled sweep kernels are registered from main() — once per entry of
// the --threads list — so one binary invocation produces the whole thread
// scaling curve. Each takes its pool explicitly and records its size.
void BM_SpmvSweepFused(benchmark::State& state, util::ThreadPool& pool) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  std::vector<double> x(m.dimension(), 1.0);
  std::vector<double> y(m.dimension());
  const std::vector<double> forcing(m.dimension(), 0.15);
  rank::SweepScratch scratch;
  state.counters["pool_threads"] = static_cast<double>(pool.size());
  for (auto _ : state) {
    auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
    benchmark::DoNotOptimize(stats.l1_delta);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_entries()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fused_bytes(m));
}

// Worklist kernel, reset before every sweep so each one runs dense: the
// frontier machinery's overhead ceiling relative to BM_SpmvSweepFused.
void BM_WorklistDenseFull(benchmark::State& state, util::ThreadPool& pool) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  std::vector<double> x(m.dimension(), 1.0);
  const std::vector<double> forcing(m.dimension(), 0.15);
  rank::SweepScratch scratch;
  rank::WorklistState wstate;
  state.counters["pool_threads"] = static_cast<double>(pool.size());
  for (auto _ : state) {
    wstate.reset();
    auto stats = m.sweep_and_residual_worklist(x, forcing, scratch, wstate, pool);
    benchmark::DoNotOptimize(stats.l1_delta);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_entries()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fused_bytes(m));
}

// Worklist kernel at a contracted steady-state frontier: converge to the
// bitwise fixed point first, then keep a 32-row perturbation live so each
// timed sweep recomputes only the rows the wave actually reaches.
void BM_WorklistContracted(benchmark::State& state, util::ThreadPool& pool) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  const std::size_t n = m.dimension();
  std::vector<double> x(n, 1.0);
  std::vector<double> forcing(n, 0.15);
  rank::SweepScratch scratch;
  rank::WorklistState wstate;
  for (int warm = 0; warm < 2000; ++warm) {
    auto stats = m.sweep_and_residual_worklist(x, forcing, scratch, wstate, pool);
    if (stats.l1_delta == 0.0) break;
  }
  state.counters["pool_threads"] = static_cast<double>(pool.size());
  std::size_t tick = 0;
  for (auto _ : state) {
    const double delta = (tick++ & 1) ? -1e-6 : 1e-6;
    for (std::size_t j = 0; j < 32; ++j) {
      const std::size_t row = (j * 1543) % n;
      forcing[row] += delta;
      wstate.mark_forcing_dirty(row);
    }
    auto stats = m.sweep_and_residual_worklist(x, forcing, scratch, wstate, pool);
    benchmark::DoNotOptimize(stats.l1_delta);
  }
  state.counters["rows_per_sweep"] =
      wstate.sweeps == 0 ? 0.0
                         : static_cast<double>(wstate.rows_computed) /
                               static_cast<double>(wstate.sweeps);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_entries()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fused_bytes(m));
}

void BM_OpenSystemSolve(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  auto& pool = util::ThreadPool::shared();
  rank::SolveOptions opts;
  opts.epsilon = 1e-10;
  for (auto _ : state) {
    auto r = rank::solve_open_system_uniform(m, 1.0, opts, pool);
    benchmark::DoNotOptimize(r.ranks.data());
  }
}
BENCHMARK(BM_OpenSystemSolve)->Unit(benchmark::kMillisecond);

void BM_GraphGeneration(benchmark::State& state) {
  const auto pages = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto g = graph::generate_synthetic_web(graph::google2002_config(pages, 7));
    benchmark::DoNotOptimize(g.num_links());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * pages);
}
BENCHMARK(BM_GraphGeneration)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_PastryRoute(benchmark::State& state) {
  overlay::PastryConfig cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 3;
  const overlay::PastryOverlay o(cfg);
  util::Rng rng(5);
  for (auto _ : state) {
    const auto from = static_cast<overlay::NodeIndex>(rng.below(cfg.num_nodes));
    auto path = o.route(from, overlay::node_id_from_u64(rng.next()));
    benchmark::DoNotOptimize(path.data());
  }
}
BENCHMARK(BM_PastryRoute)->Arg(1000)->Arg(10000);

void BM_ChordRoute(benchmark::State& state) {
  overlay::ChordConfig cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 3;
  const overlay::ChordOverlay o(cfg);
  util::Rng rng(5);
  for (auto _ : state) {
    const auto from = static_cast<overlay::NodeIndex>(rng.below(cfg.num_nodes));
    auto path = o.route(from, overlay::node_id_from_u64(rng.next()));
    benchmark::DoNotOptimize(path.data());
  }
}
BENCHMARK(BM_ChordRoute)->Arg(1000)->Arg(10000);

void BM_PastryBuild(benchmark::State& state) {
  for (auto _ : state) {
    overlay::PastryConfig cfg;
    cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
    cfg.seed = 9;
    const overlay::PastryOverlay o(cfg);
    benchmark::DoNotOptimize(o.num_nodes());
  }
}
BENCHMARK(BM_PastryBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_HashSitePartition(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto p = partition::make_hash_site_partitioner();
  for (auto _ : state) {
    auto assignment = p->partition(g, 64);
    benchmark::DoNotOptimize(assignment.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_pages()));
}
BENCHMARK(BM_HashSitePartition);

void BM_HashUrlPartition(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto p = partition::make_hash_url_partitioner();
  for (auto _ : state) {
    auto assignment = p->partition(g, 64);
    benchmark::DoNotOptimize(assignment.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_pages()));
}
BENCHMARK(BM_HashUrlPartition);

void BM_IndirectExchangeRound(benchmark::State& state) {
  overlay::PastryConfig cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 13;
  const overlay::PastryOverlay o(cfg);
  const auto demand = transport::ExchangeDemand::all_pairs(cfg.num_nodes, 2);
  for (auto _ : state) {
    auto report = transport::run_indirect_exchange(o, demand, {});
    benchmark::DoNotOptimize(report.records_delivered);
  }
}
BENCHMARK(BM_IndirectExchangeRound)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_CentralizedReference(benchmark::State& state) {
  const auto& g = bench_graph();
  auto& pool = util::ThreadPool::shared();
  for (auto _ : state) {
    auto r = engine::open_system_reference(g, 0.85, pool, 1e-10);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_CentralizedReference)->Unit(benchmark::kMillisecond);

// --- custom main: --threads sweep, --determinism-check ----------------------

/// Pools for the registered pooled benchmarks; they must outlive
/// RunSpecifiedBenchmarks. Size 0 means the shared hardware-sized pool.
util::ThreadPool& pool_for(unsigned threads) {
  if (threads == 0) return util::ThreadPool::shared();
  static std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(std::make_unique<util::ThreadPool>(threads));
  return *pools.back();
}

void register_pooled_benchmarks(const std::vector<unsigned>& thread_list) {
  for (const unsigned t : thread_list) {
    auto& pool = pool_for(t);
    const std::string suffix = "/threads:" + std::to_string(pool.size());
    const auto reg = [&](const char* name,
                         void (*fn)(benchmark::State&, util::ThreadPool&)) {
      benchmark::RegisterBenchmark(
          (name + suffix).c_str(),
          [fn, &pool](benchmark::State& state) { fn(state, pool); });
    };
    reg("BM_SpmvSweepFused", BM_SpmvSweepFused);
    reg("BM_WorklistDenseFull", BM_WorklistDenseFull);
    reg("BM_WorklistContracted", BM_WorklistContracted);
  }
}

/// Solve a small graph dense and with the worklist kernel on 1-, 2- and
/// 8-thread pools; exit 0 iff all rank vectors are bitwise identical, and 1
/// when they differ or the graph has no blocked row. This is the
/// tier-bench-smoke CI gate — cheap enough for every PR.
int run_determinism_check(std::uint32_t pages) {
  const auto g =
      graph::generate_synthetic_web(graph::google2002_config(pages, 42));
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  if (m.num_blocks() == 0) {
    std::cerr << "determinism-check: the " << pages
              << "-page graph has no row longer than "
              << rank::LinkMatrix::kBlockEdges
              << " in-edges, so the block path would go untested\n";
    return 1;
  }
  const std::vector<double> forcing(m.dimension(), (1.0 - 0.85) * 1.0);
  rank::SolveOptions sopts;
  sopts.epsilon = 1e-10;

  std::vector<std::vector<double>> solutions;
  std::vector<std::string> names;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    auto dense = rank::solve_open_system(m, forcing, {}, sopts, pool);
    solutions.push_back(std::move(dense.ranks));
    names.push_back("dense/t" + std::to_string(threads));
    std::vector<double> sparse(m.dimension(), 0.0);
    rank::SweepScratch scratch;
    rank::WorklistState wstate;
    (void)rank::iterate_open_system(m, forcing, sparse, sopts, scratch, pool, &wstate);
    solutions.push_back(std::move(sparse));
    names.push_back("worklist/t" + std::to_string(threads));
  }

  bool ok = true;
  for (std::size_t v = 1; v < solutions.size(); ++v) {
    if (std::memcmp(solutions[0].data(), solutions[v].data(),
                    solutions[0].size() * sizeof(double)) != 0) {
      std::cerr << "determinism-check: " << names[v]
                << " differs bitwise from " << names[0] << "\n";
      ok = false;
    }
  }
  std::cout << "determinism-check: " << pages << " pages, "
            << m.num_entries() << " edges, " << solutions.size()
            << " solves " << (ok ? "bitwise identical" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}

/// Pool sizes above this are refused before any pool starts.
constexpr std::uint64_t kMaxThreads = 1024;

}  // namespace

int main(int argc, char** argv) {
  // This program's own flags go through util::Flags, so their values parse
  // in full; every other argument is google-benchmark's.
  std::vector<std::string> own;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    if (name != "--threads" && name != "--pages" && name != "--determinism-check") {
      passthrough.push_back(argv[i]);
      continue;
    }
    own.emplace_back(arg);
    if (arg == name && name != "--determinism-check" && i + 1 < argc &&
        !std::string_view(argv[i + 1]).starts_with("--")) {
      own.emplace_back(argv[++i]);
    }
  }
  util::Flags flags(own);
  const bool determinism_check = flags.flag("determinism-check");
  const auto det_pages = flags.get<std::uint32_t>("pages", 2000);
  const auto threads = flags.get_list("threads", {});
  try {
    flags.finish();
    if (std::ranges::any_of(threads, [](std::uint64_t t) { return t > kMaxThreads; })) {
      throw util::FlagError("--threads entries must be at most " +
                            std::to_string(kMaxThreads));
    }
  } catch (const util::FlagError& e) {
    std::cerr << "micro_kernels: " << e.what() << "\n";
    return 2;
  }
  if (determinism_check) return run_determinism_check(det_pages);

  std::vector<unsigned> thread_list;
  for (const std::uint64_t t : threads) thread_list.push_back(static_cast<unsigned>(t));
  if (thread_list.empty()) thread_list = {0};  // shared hardware-sized pool
  register_pooled_benchmarks(thread_list);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
