// Time-to-accuracy benchmark harness: cold DPR1/DPR2 pipelines and
// recrawl-while-serving, timed from outside the library around calls into
// its public functions.
//
//   tta_bench gen     --kind crawl|recrawl --pages N --seed S [--batches B]
//                     --out DIR
//   tta_bench measure --workload W --seed S --seconds T --trace 0|1
//                     --inputs DIR [--batches B --min-reps R --counts FILE]
//
// perfbench/run.py drives both; README.md there defines every metric.
//
// `gen` writes every input outside any timer: the google2002 synthetic
// crawl as p2pgrb1 bytes, the centralized open-system reference of every
// graph version, and the recrawl update batches. `measure` only reads them.
// Untraced runs (--trace 0) give the end-to-end metrics. A traced run
// (--trace 1) attaches the engine's metrics/tracer observers, then times
// each layer's public calls on the final engine state and multiplies the
// per-call costs by the run's exact counts (the attribution closure).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, and with --trace 0 the per-repeat `samples` of setup_s and tta_s,
// from which run.py computes the timed end-to-end metrics over all its
// processes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/engine_types.hpp"
#include "engine/page_group.hpp"
#include "engine/reference.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_updates.hpp"
#include "graph/synthetic_web.hpp"
#include "graph/web_graph.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "rank/link_matrix.hpp"
#include "serve/loadgen.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

namespace {

using namespace p2prank;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kAlpha = 0.85;
constexpr double kThreshold = 1e-6;
constexpr double kCheckInterval = 1.0;
constexpr double kMaxVirtualTime = 5000.0;
constexpr std::uint64_t kGraphSeed = 42;  // the google2002 crawl every seed permutes
// One worker, so every fork-join runs inline on the calling thread
// (ThreadPool never dispatches to a single worker). On a 4-vCPU share of a
// busy host, each fork-join barrier waits for the slowest of its threads:
// with 2 workers plus the caller, DPR1 runs of the same inputs took
// 0.55-1.9 s within minutes, against 0.58-1.15 s inline.
constexpr std::size_t kPoolWorkers = 1;
constexpr int kWarmupReps = 1;           // first-touch page faults, cold caches
// The engine's asynchrony seed (per-ranker wait draws) is part of the
// workload definition: varying it moved DPR1's time to accuracy 5x.
constexpr std::uint64_t kEngineSeed = 7;
constexpr double kServeVtime = 100.0;    // virtual time of a post-run query load
constexpr std::uint32_t kBatchEdits = 1000;  // link edits per recrawl batch

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  bool hash_site = true;
  std::uint32_t k = 16;
  engine::Algorithm algorithm = engine::Algorithm::kDPR1;
  double delivery_latency = 0.0;
  bool recrawl = false;  // worklist ε = 0, snapshot serving, update batches
};

// Why these three: cold-dpr1-site16 is kernel-bound (few messages, many
// pooled sweeps of site-sized groups); cold-dpr2-url64 is exchange-bound
// (nearly every link is cut, so compute_y/refresh_x and event dispatch
// dominate); recrawl-serve runs the splice write path, the frontier kernel
// and snapshot publishing beside queries. Each optimization of one layer
// has a workload that exercises it and one that bypasses it.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"cold-dpr1-site16", true, 16, engine::Algorithm::kDPR1, 0.0, false},
      {"cold-dpr2-url64", false, 64, engine::Algorithm::kDPR2, 0.5, false},
      {"recrawl-serve", true, 64, engine::Algorithm::kDPR2, 0.0, true},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

engine::EngineOptions engine_options(const Workload& w) {
  engine::EngineOptions eo;
  eo.algorithm = w.algorithm;
  eo.alpha = kAlpha;
  eo.t1 = 0.0;
  eo.t2 = 6.0;
  eo.delivery_latency = w.delivery_latency;
  eo.seed = kEngineSeed;
  if (w.recrawl) {
    eo.worklist = true;
    eo.worklist_epsilon = 0.0;
  }
  return eo;
}

// --- Small I/O helpers -------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream s;
  s << f.rdbuf();
  return std::move(s).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("cannot write " + path);
}

void write_doubles(const std::string& path, const std::vector<double>& v) {
  write_file(path, std::string(reinterpret_cast<const char*>(v.data()),
                               v.size() * sizeof(double)));
}

std::vector<double> read_doubles(const std::string& path) {
  const std::string bytes = read_file(path);
  std::vector<double> v(bytes.size() / sizeof(double));
  std::copy(bytes.begin(), bytes.end(), reinterpret_cast<char*>(v.data()));
  return v;
}

/// Read-only stream over bytes already in memory, so the timed ingest
/// measures load_graph_binary and not file I/O or a buffer copy.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

graph::WebGraph load_from_bytes(const std::string& bytes) {
  MemoryBuf buf(bytes);
  std::istream in(&buf);
  return graph::load_graph_binary(in);
}

std::string batch_path(const std::string& dir, std::uint32_t i) {
  return dir + "/batch" + std::to_string(i) + ".txt";
}
std::string ref_path(const std::string& dir, std::uint32_t i) {
  return dir + "/ref" + std::to_string(i) + ".bin";
}

/// One update per line: "L <from> <to>" (add_link) or "X <from>"
/// (add_external). Synthetic URLs contain no whitespace.
std::string encode_batch(const std::vector<graph::LinkUpdate>& ups) {
  std::ostringstream os;
  for (const auto& u : ups) {
    if (u.kind == graph::LinkUpdate::Kind::kAddLink) {
      os << "L " << u.from_url << ' ' << u.to_url << '\n';
    } else {
      os << "X " << u.from_url << '\n';
    }
  }
  return os.str();
}

std::vector<graph::LinkUpdate> decode_batch(const std::string& text) {
  std::vector<graph::LinkUpdate> ups;
  std::istringstream in(text);
  std::string kind;
  std::string from;
  std::string to;
  while (in >> kind >> from) {
    if (kind == "L") {
      in >> to;
      ups.push_back(graph::LinkUpdate::add_link(from, to));
    } else if (kind == "X") {
      ups.push_back(graph::LinkUpdate::add_external(from));
    } else {
      throw std::runtime_error("bad update batch record: " + kind);
    }
  }
  return ups;
}

/// A seeded link-only batch: 70% add_link between random crawled pages,
/// 30% add_external. Never adds pages, so the splice stays incremental.
std::vector<graph::LinkUpdate> make_batch(const graph::WebGraph& g, util::Rng& rng,
                                          std::uint32_t edits) {
  const auto n = static_cast<std::uint64_t>(g.num_pages());
  std::vector<graph::LinkUpdate> ups;
  ups.reserve(edits);
  for (std::uint32_t i = 0; i < edits; ++i) {
    const auto from = static_cast<graph::PageId>(rng.below(n));
    if (rng.uniform() < 0.7) {
      const auto to = static_cast<graph::PageId>(rng.below(n));
      ups.push_back(graph::LinkUpdate::add_link(g.url(from), g.url(to)));
    } else {
      ups.push_back(graph::LinkUpdate::add_external(g.url(from)));
    }
  }
  return ups;
}

// --- Argument parsing --------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::string str(const std::string& key,
                                const std::optional<std::string>& def = {}) const {
    const auto it = kv.find(key);
    if (it != kv.end()) return it->second;
    if (def) return *def;
    throw std::invalid_argument("missing --" + key);
  }
  [[nodiscard]] std::uint64_t num(const std::string& key,
                                  std::optional<std::uint64_t> def = {}) const {
    const auto it = kv.find(key);
    if (it != kv.end()) return std::stoull(it->second);
    if (def) return *def;
    throw std::invalid_argument("missing --" + key);
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got " + key);
    }
    a.kv[key.substr(2)] = argv[++i];
  }
  return a;
}

// --- gen ---------------------------------------------------------------------

/// The same crawl with its sites emitted in a seeded order: page ids are
/// assigned site by site, so the permutation changes the memory layout of
/// every CSR and group while the link structure, the partition and hence
/// the algorithm's work stay those of the base crawl.
graph::WebGraph permute_site_order(const graph::WebGraph& base, std::uint64_t seed) {
  const auto sites = static_cast<std::uint32_t>(base.num_sites());
  std::vector<std::uint32_t> order(sites);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed ^ 0x517eULL);
  for (std::uint32_t i = sites; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<std::vector<graph::PageId>> by_site(sites);
  for (graph::PageId p = 0; p < base.num_pages(); ++p) by_site[base.site(p)].push_back(p);

  graph::GraphBuilder b;
  std::vector<graph::PageId> new_id(base.num_pages());
  for (const std::uint32_t s : order) {
    for (const graph::PageId p : by_site[s]) {
      new_id[p] = b.add_page(base.url(p), base.site_name(s));
    }
  }
  for (graph::PageId p = 0; p < base.num_pages(); ++p) {
    for (const graph::PageId v : base.out_links(p)) b.add_link(new_id[p], new_id[v]);
    if (base.external_out_degree(p) > 0) {
      b.add_external_link(new_id[p], base.external_out_degree(p));
    }
  }
  return std::move(b).build();
}

int run_gen(const Args& args) {
  const std::string kind = args.str("kind");
  const auto pages = static_cast<std::uint32_t>(args.num("pages"));
  const std::uint64_t seed = args.num("seed");
  const std::string out = args.str("out");
  std::filesystem::create_directories(out);
  util::ThreadPool pool(kPoolWorkers);

  const graph::WebGraph base = graph::generate_synthetic_web_streamed(
      graph::google2002_config(pages, kGraphSeed));
  auto g = std::make_unique<graph::WebGraph>(permute_site_order(base, seed));
  {
    std::ostringstream bytes;
    graph::save_graph_binary(*g, bytes);
    write_file(out + "/graph.bin", bytes.str());
  }
  write_doubles(ref_path(out, 0), engine::open_system_reference(*g, kAlpha, pool));

  if (kind == "recrawl") {
    // Batches are drawn by URL from the base crawl with the graph seed, so
    // every workload seed applies the same edits: drawn from --seed, the
    // median refresh's virtual time spread 7% over five seeds. Link-only
    // batches keep the page set, so the base crawl serves every version.
    const auto batches = static_cast<std::uint32_t>(args.num("batches"));
    util::Rng rng(kGraphSeed ^ 0x5ca1ab1eULL);
    for (std::uint32_t i = 1; i <= batches; ++i) {
      const auto ups = make_batch(base, rng, kBatchEdits);
      write_file(batch_path(out, i), encode_batch(ups));
      auto next = graph::apply_updates_delta(*g, ups);
      if (!next.incremental) throw std::runtime_error("gen: batch not incremental");
      g = std::make_unique<graph::WebGraph>(std::move(next.graph));
      write_doubles(ref_path(out, i), engine::open_system_reference(*g, kAlpha, pool));
    }
  } else if (kind != "crawl") {
    throw std::invalid_argument("gen: --kind must be crawl or recrawl");
  }
  write_file(out + "/complete", kind + "\n");
  return 0;
}

// --- Measurement helpers -----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seconds per call of `body`: each of five blocks repeats it for at least
/// `min_s` and `min_reps` calls; the median block is reported.
double per_call_seconds(const std::function<void()>& body, double min_s = 0.004,
                        int min_reps = 2) {
  body();  // warm
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    int reps = 0;
    const auto t0 = Clock::now();
    do {
      body();
      ++reps;
    } while (reps < min_reps || seconds_since(t0) < min_s);
    blocks.push_back(seconds_since(t0) / reps);
  }
  return median(blocks);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<partition::GroupId> run_partition(const Workload& w,
                                              const graph::WebGraph& g) {
  const auto p = w.hash_site ? partition::make_hash_site_partitioner()
                             : partition::make_hash_url_partitioner();
  return p->partition(g, w.k);
}

serve::LoadGenOptions load_options(std::uint64_t seed) {
  serve::LoadGenOptions lo;
  lo.clients = 1000;
  lo.servers = 16;
  lo.seed = seed ^ 0x10adULL;
  return lo;
}

/// Timing RankSnapshotSink around serve::SnapshotStore. It also advances
/// the closed-loop query load to each publish's virtual time, so queries
/// read the store between engine steps, as a deployment's readers would.
class TimingSink final : public engine::RankSnapshotSink {
 public:
  explicit TimingSink(serve::SnapshotStore& store) : store_(store) {}

  void publish(double time, std::span<const double> ranks,
               std::span<const std::uint32_t> assignment,
               std::uint32_t num_shards) override {
    const auto t0 = Clock::now();
    store_.publish(time, ranks, assignment, num_shards);
    publish_seconds.push_back(seconds_since(t0));
    advance_load(time);
  }
  void publish_groups(double time, std::span<const engine::GroupCut> groups,
                      std::uint32_t num_pages,
                      std::uint64_t ownership_version) override {
    const auto t0 = Clock::now();
    store_.publish_groups(time, groups, num_pages, ownership_version);
    publish_seconds.push_back(seconds_since(t0));
    advance_load(time);
  }
  void invalidate(double time) override { store_.invalidate(time); }

  /// Interleave `load` (nullptr: none) with publishes; its clock is
  /// `offset` + the publishing engine's virtual time.
  void attach_load(serve::LoadGenerator* load, double offset) {
    load_ = load;
    offset_ = offset;
  }

  std::vector<double> publish_seconds;  // one entry per publish
  double query_seconds = 0.0;           // inside LoadGenerator::run_until

 private:
  void advance_load(double time) {
    if (load_ == nullptr) return;
    const auto t0 = Clock::now();
    load_->run_until(offset_ + time);
    query_seconds += seconds_since(t0);
  }

  serve::SnapshotStore& store_;
  serve::LoadGenerator* load_ = nullptr;
  double offset_ = 0.0;
};

/// Attempted and failed operations: runs, batches, queries and guards.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void tally(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad != 0) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
  void expect(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
};

/// Every completed query must have read a consistent, available snapshot.
void check_queries(Checker& check, const serve::LoadGenerator& load) {
  const auto rep = load.report();
  check.tally(rep.completed, rep.torn_reads + rep.unavailable,
              "serving: " + std::to_string(rep.torn_reads) + " torn and " +
                  std::to_string(rep.unavailable) + " unavailable reads of " +
                  std::to_string(rep.completed));
  check.expect(rep.completed > 0, "serving: the load completed queries");
}

struct ServeCost {
  double publish_s = 0.0;  // per publish
  double query_s = 0.0;    // per completed query
};

/// Serving the converged ranking of a cold run: publish it into a fresh
/// store and run the closed-loop query load against it for `vtime` units.
ServeCost serve_converged(Checker& check, const engine::DistributedRanking& eng,
                          std::uint32_t pages, std::uint64_t seed, double vtime) {
  serve::SnapshotStore store(16);
  std::vector<engine::GroupCut> cuts;
  for (std::uint32_t i = 0; i < eng.num_groups(); ++i) {
    cuts.push_back({eng.group(i).members(), eng.group(i).ranks()});
  }
  double t = 0.0;
  ServeCost cost;
  cost.publish_s =
      per_call_seconds([&] { store.publish_groups(t += 1.0, cuts, pages, 1); });
  serve::LoadGenerator load(store, pages, load_options(seed));
  const auto t0 = Clock::now();
  load.run_until(vtime);
  const double wall = seconds_since(t0);
  check_queries(check, load);
  const auto done = load.server().queries();
  cost.query_s = done ? wall / static_cast<double>(done) : 0.0;
  return cost;
}

/// Exact counts of one ranking run; the determinism guard compares them
/// bitwise across repeats, between traced and untraced runs, and across
/// processes of the same seed and binary.
struct Counts {
  double vtime = 0.0;
  double outer_steps = 0.0;
  std::uint64_t records = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t messages = 0;

  [[nodiscard]] std::string signature() const {
    std::ostringstream os;
    os << std::setprecision(17) << vtime << ' ' << outer_steps << ' ' << records << ' '
       << sweeps << ' ' << messages;
    return os.str();
  }
};

Counts counts_of(const engine::DistributedRanking& eng,
                 const engine::ConvergenceResult& r) {
  return Counts{r.time, r.mean_outer_steps, r.records_sent, eng.total_inner_sweeps(),
                r.messages_sent};
}

/// Determinism guard over signatures: the first one seen is the reference.
struct Guard {
  std::optional<std::string> first;
  void note(Checker& check, const std::string& sig, const std::string& what) {
    if (!first) {
      first = sig;
      return;
    }
    check.expect(sig == *first, "determinism: " + what + " counts [" + sig +
                                    "] != [" + *first + "]");
  }
};

/// Cross-process determinism guard: the exact counts of (workload, seed,
/// size) are remembered per binary in `path`; a later process of the same
/// binary that sees different counts fails.
bool counts_match_history(const std::string& path, const std::string& key,
                          const std::string& signature) {
  if (path.empty()) return true;
  std::error_code ec;
  const auto size = std::filesystem::file_size("/proc/self/exe", ec);
  const auto mtime = std::filesystem::last_write_time("/proc/self/exe", ec);
  std::ostringstream id;
  id << key << " bin=" << size << ":" << mtime.time_since_epoch().count();
  std::map<std::string, std::string> seen;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto bar = line.find('|');
      if (bar != std::string::npos) seen[line.substr(0, bar)] = line.substr(bar + 1);
    }
  }
  const auto it = seen.find(id.str());
  if (it != seen.end()) return it->second == signature;
  std::ofstream out(path, std::ios::app);
  out << id.str() << '|' << signature << '\n';
  return true;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Per-call costs of each layer's public calls on a converged engine's
/// final state, group by group.
struct LayerCosts {
  std::vector<double> sweep_s;      // one dense sweep, per group
  std::vector<std::uint64_t> dims;  // rows per group
  double sweep_s_total = 0.0;
  std::uint64_t sweep_edges = 0;    // matrix entries over all groups
  double compute_y_s = 0.0;         // one compute_y of every cut pair
  double refresh_x_s = 0.0;         // one refresh_x of every cut pair
  std::uint64_t slice_records = 0;  // records in those slices
  double check_s = 0.0;             // one relative_error_now()

  [[nodiscard]] double compute_y_ns_per_record() const {
    return 1e9 * ratio(compute_y_s, static_cast<double>(slice_records));
  }
  [[nodiscard]] double refresh_x_ns_per_record() const {
    return 1e9 * ratio(refresh_x_s, static_cast<double>(slice_records));
  }
};

/// refresh_x needs a mutable group, so each destination is rebuilt as a
/// standalone PageGroup with the same members and fed the engine's slices.
LayerCosts measure_layer_costs(const engine::DistributedRanking& eng,
                               const graph::WebGraph& g, util::ThreadPool& pool) {
  LayerCosts c;
  const std::uint32_t k = eng.num_groups();
  c.sweep_s.assign(k, 0.0);
  c.dims.assign(k, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto& grp = eng.group(i);
    const auto& m = grp.matrix();
    c.dims[i] = m.dimension();
    if (m.dimension() == 0) continue;
    std::vector<double> in(grp.ranks().begin(), grp.ranks().end());
    std::vector<double> out(in.size());
    const std::vector<double> forcing(in.size(), 1.0 - kAlpha);
    rank::SweepScratch scratch;
    c.sweep_s[i] = per_call_seconds(
        [&] { (void)m.sweep_and_residual(in, out, forcing, scratch, pool); });
    c.sweep_s_total += c.sweep_s[i];
    c.sweep_edges += m.num_entries();
  }

  for (std::uint32_t dst = 0; dst < k; ++dst) {
    if (eng.group(dst).size() == 0) continue;
    std::vector<std::pair<std::uint32_t, engine::YSlice>> slices;
    std::vector<double> cy;
    for (int rep = 0; rep < 3; ++rep) {
      slices.clear();
      const auto t0 = Clock::now();
      for (std::uint32_t src = 0; src < k; ++src) {
        if (src == dst || !eng.has_cut_edges(src, dst)) continue;
        slices.emplace_back(src, eng.group(src).compute_y(dst));
      }
      cy.push_back(seconds_since(t0));
    }
    c.compute_y_s += median(cy);
    for (const auto& [src, s] : slices) c.slice_records += s.record_count;

    const auto members = eng.group(dst).members();
    engine::PageGroup copy(g, std::vector<graph::PageId>(members.begin(), members.end()),
                           kAlpha);
    std::vector<double> rx;
    for (int rep = 0; rep < 4; ++rep) {  // the first pass inserts, later ones update
      const auto t0 = Clock::now();
      for (const auto& [src, s] : slices) copy.refresh_x(src, s);
      if (rep > 0) rx.push_back(seconds_since(t0));
    }
    c.refresh_x_s += median(rx);
  }

  c.check_s = per_call_seconds([&] { (void)eng.relative_error_now(); }, 0.01, 3);
  return c;
}

/// Metrics of the final JSON line, in print order.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// End-to-end figures of one workload (--trace 0). The timings are left as
/// samples, one per measured set-up and per ranking run (or batch refresh).
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> tta_s;
  double vtime = 0.0;
  double outer_steps = 0.0;
  double records = 0.0;
};

Report end_to_end_report(const EndToEnd& e) {
  Report report;
  report.samples = {{"setup_s", e.setup_s}, {"tta_s", e.tta_s}};
  report.add("vtime_to_accuracy", e.vtime, "vtime");
  report.add("outer_steps", e.outer_steps, "steps");
  report.add("records_to_accuracy", e.records, "records");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

/// Per-layer figures of one workload (--trace 1).
struct Layers {
  double load_s = 0.0;
  double splice_s = 0.0;
  double splice_rows = 0.0;
  double partition_s = 0.0;
  double cut_fraction = 0.0;
  double wire_s = 0.0;
  double warm_start_s = 0.0;
  std::uint64_t sweeps = 0;
  double kernel_s = 0.0;
  double recompute_ratio = 1.0;  // dense kernels recompute every row
  std::uint64_t messages = 0;
  std::uint64_t records = 0;
  LayerCosts costs;
  double exchange_s = 0.0;
  double check_s = 0.0;
  double other_s = 0.0;
  util::ThreadPool::Stats pool;
  std::size_t publishes = 0;
  double publish_s = 0.0;  // per publish
  double query_ns = 0.0;   // per completed query
  double overhead_ratio = 0.0;
};

Report per_layer_report(const Layers& l) {
  const auto calls = l.pool.parallel_for_calls + l.pool.grained_calls;
  Report report;
  report.add("graph.load_s", l.load_s, "s");
  report.add("graph.splice_s", l.splice_s, "s");
  report.add("graph.splice_rows_changed", l.splice_rows, "rows");
  report.add("partition.s", l.partition_s, "s");
  report.add("partition.cut_fraction", l.cut_fraction, "ratio");
  report.add("engine.wire_s", l.wire_s, "s");
  report.add("engine.warm_start_s", l.warm_start_s, "s");
  report.add("rank.sweeps", static_cast<double>(l.sweeps), "count");
  report.add("rank.sweep_ns_per_edge",
             1e9 * ratio(l.costs.sweep_s_total, static_cast<double>(l.costs.sweep_edges)),
             "ns");
  report.add("rank.kernel_s", l.kernel_s, "s");
  report.add("rank.worklist_recompute_ratio", l.recompute_ratio, "ratio");
  report.add("exchange.messages", static_cast<double>(l.messages), "count");
  report.add("exchange.records", static_cast<double>(l.records), "count");
  report.add("exchange.records_per_message",
             ratio(static_cast<double>(l.records), static_cast<double>(l.messages)),
             "ratio");
  report.add("exchange.compute_y_ns_per_record", l.costs.compute_y_ns_per_record(), "ns");
  report.add("exchange.refresh_x_ns_per_record", l.costs.refresh_x_ns_per_record(), "ns");
  report.add("exchange.s", l.exchange_s, "s");
  report.add("engine.check_s", l.check_s, "s");
  report.add("engine.other_s", l.other_s, "s");
  report.add("pool.dispatches", static_cast<double>(l.pool.dispatches), "count");
  report.add("pool.inline_ratio",
             calls ? 1.0 - ratio(static_cast<double>(l.pool.dispatches),
                                 static_cast<double>(calls))
                   : 0.0,
             "ratio");
  report.add("serve.publishes", static_cast<double>(l.publishes), "count");
  report.add("serve.publish_us", 1e6 * l.publish_s, "us");
  report.add("serve.query_ns", l.query_ns, "ns");
  report.add("trace.overhead_ratio", l.overhead_ratio, "ratio");
  return report;
}

int finish(const Checker& check, const Report& report) {
  std::ostringstream os;
  os << "{\"correct\": " << (check.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << check.attempted << ", \"failed\": " << check.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, vu] = report.metrics[i];
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << json_number(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}";
  if (!report.samples.empty()) {
    os << ", \"samples\": {";
    for (std::size_t i = 0; i < report.samples.size(); ++i) {
      const auto& [name, values] = report.samples[i];
      os << (i ? ", " : "") << "\"" << name << "\": [";
      for (std::size_t j = 0; j < values.size(); ++j) {
        os << (j ? ", " : "") << json_number(values[j]);
      }
      os << "]";
    }
    os << "}";
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return check.failed == 0 ? 0 : 1;
}

/// Prints each attributed layer next to the measured wall time and returns
/// the unattributed remainder (engine.other_s).
double print_closure(const std::string& title,
                     const std::vector<std::pair<std::string, double>>& parts,
                     double wall, const std::string& remainder = "engine.other_s") {
  double attributed = 0.0;
  std::cout << "attribution closure, " << title << " (measured wall " << wall
            << " s):\n";
  const auto row = [&](const std::string& name, double s, const std::string& note) {
    std::cout << "  " << std::left << std::setw(26) << name << std::right
              << std::setw(12) << std::fixed << std::setprecision(6) << s << " s "
              << std::setw(6) << std::setprecision(1)
              << (wall > 0 ? 100.0 * s / wall : 0.0) << "%" << note << "\n"
              << std::defaultfloat << std::setprecision(6);
  };
  for (const auto& [name, s] : parts) {
    attributed += s;
    row(name, s, "");
  }
  row(remainder, wall - attributed, "  (unattributed remainder)");
  return wall - attributed;
}

struct MeasureConfig {
  Workload w;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;
  std::string counts_file;
  std::uint32_t batches = 0;
  int min_reps = 3;
};

struct Pipeline {
  std::unique_ptr<graph::WebGraph> g;
  std::vector<partition::GroupId> assignment;
  std::unique_ptr<engine::DistributedRanking> eng;
  double load_s = 0.0;
  double partition_s = 0.0;
  double wire_s = 0.0;

  /// Frees the engine before the graph it references.
  void release() {
    eng.reset();
    g.reset();
  }
};

Pipeline build_pipeline(const Workload& w, const std::string& bytes,
                        const engine::EngineOptions& eo, util::ThreadPool& pool) {
  Pipeline s;
  auto t0 = Clock::now();
  s.g = std::make_unique<graph::WebGraph>(load_from_bytes(bytes));
  s.load_s = seconds_since(t0);
  t0 = Clock::now();
  s.assignment = run_partition(w, *s.g);
  s.partition_s = seconds_since(t0);
  t0 = Clock::now();
  s.eng = std::make_unique<engine::DistributedRanking>(*s.g, s.assignment, w.k, eo, pool);
  s.wire_s = seconds_since(t0);
  return s;
}

double checks_for(double vtime) { return 1.0 + std::ceil(vtime / kCheckInterval - 1e-9); }

/// Splice cost of one seeded link-only batch on `g` (the cold workloads
/// report it so every workload carries the same per-layer set).
std::pair<double, double> probe_splice(const graph::WebGraph& g, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5ca1ab1eULL);
  const auto ups = make_batch(g, rng, kBatchEdits);
  graph::GraphUpdateResult delta;
  const double s = per_call_seconds([&] { delta = graph::apply_updates_delta(g, ups); },
                                    0.0, 1);
  return {s, static_cast<double>(delta.in_changed.size() + delta.degree_changed.size())};
}

// --- Cold workloads ----------------------------------------------------------


int measure_cold(const MeasureConfig& cfg, util::ThreadPool& pool) {
  const Workload& w = cfg.w;
  Checker check;
  Guard guard;
  const std::string bytes = read_file(cfg.inputs + "/graph.bin");
  const std::vector<double> reference = read_doubles(ref_path(cfg.inputs, 0));
  const auto pages = static_cast<std::uint32_t>(reference.size());
  const auto eo = engine_options(w);

  std::vector<double> setup_s, tta_s, load_s, partition_s, wire_s;
  Counts counts;
  const auto start = Clock::now();
  const int reps = kWarmupReps + cfg.min_reps;
  for (int rep = 0; rep < reps || (!cfg.trace && seconds_since(start) < cfg.seconds);
       ++rep) {
    Pipeline s = build_pipeline(w, bytes, eo, pool);
    s.eng->set_reference(reference);
    const auto t0 = Clock::now();
    const auto r = s.eng->run_until_error(kThreshold, kMaxVirtualTime, kCheckInterval);
    const double tta = seconds_since(t0);
    check.expect(r.reached && r.final_relative_error <= kThreshold,
                 "run reached relative error " + json_number(r.final_relative_error));
    counts = counts_of(*s.eng, r);
    guard.note(check, counts.signature(), "untraced repeat");
    const double setup = s.load_s + s.partition_s + s.wire_s;
    std::cout << w.name << " rep " << rep << ": load " << s.load_s << " s, partition "
              << s.partition_s << " s, wire " << s.wire_s << " s, run " << tta
              << " s to error " << r.final_relative_error << " at vtime " << r.time
              << (rep < kWarmupReps ? " (warm-up)" : "") << "\n";
    if (rep < kWarmupReps) continue;
    setup_s.push_back(setup);
    tta_s.push_back(tta);
    load_s.push_back(s.load_s);
    partition_s.push_back(s.partition_s);
    wire_s.push_back(s.wire_s);
  }

  check.expect(counts_match_history(cfg.counts_file,
                                    w.name + " seed=" + std::to_string(cfg.seed) +
                                        " pages=" + std::to_string(pages),
                                    *guard.first),
               "determinism: counts differ from an earlier process of this binary");
  if (!cfg.trace) {
    return finish(check, end_to_end_report({setup_s, tta_s, counts.vtime,
                                            counts.outer_steps,
                                            static_cast<double>(counts.records)}));
  }

  // Traced run: the engine's own observers attached (they only observe).
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  auto teo = eo;
  teo.metrics = &registry;
  teo.tracer = &tracer;
  Pipeline s = build_pipeline(w, bytes, teo, pool);
  s.eng->set_reference(reference);
  load_s.push_back(s.load_s);
  partition_s.push_back(s.partition_s);
  wire_s.push_back(s.wire_s);
  const auto pool_before = pool.stats();
  const auto t0 = Clock::now();
  const auto r = s.eng->run_until_error(kThreshold, kMaxVirtualTime, kCheckInterval);
  const double traced_wall = seconds_since(t0);
  const auto pool_delta = pool.stats() - pool_before;
  check.expect(r.reached && r.final_relative_error <= kThreshold, "traced run accuracy");
  const Counts tc = counts_of(*s.eng, r);
  guard.note(check, tc.signature(), "traced");
  check.expect(registry.counter_value(obs::names::kEngineMessagesSent) == tc.messages,
               "metrics observer agrees with the engine's message count");

  Layers l;
  l.costs = measure_layer_costs(*s.eng, *s.g, pool);
  const LayerCosts& c = l.costs;
  const auto steps = s.eng->outer_steps_per_group();
  const double total_steps = std::accumulate(steps.begin(), steps.end(), 0.0);
  // Per-group sweep counts are not exported: DPR2 sweeps once per step, and
  // DPR1's inner sweeps are spread over groups in proportion to steps.
  for (std::uint32_t i = 0; i < c.sweep_s.size(); ++i) {
    const double sweeps_i =
        total_steps > 0 ? static_cast<double>(tc.sweeps) * steps[i] / total_steps : 0.0;
    l.kernel_s += sweeps_i * c.sweep_s[i];
  }
  l.exchange_s = static_cast<double>(tc.records) *
                 (c.compute_y_ns_per_record() + c.refresh_x_ns_per_record()) * 1e-9;
  l.check_s = checks_for(tc.vtime) * c.check_s;
  const double wall = median(tta_s);  // untraced runs with the same counts
  l.other_s = print_closure("ranking run",
                            {{"rank.kernel_s", l.kernel_s},
                             {"exchange.s", l.exchange_s},
                             {"engine.check_s", l.check_s}},
                            wall);
  std::cout << "traced run wall " << traced_wall << " s, " << tracer.size()
            << " trace events (" << tracer.dropped() << " dropped)\n";

  const ServeCost serve = serve_converged(check, *s.eng, pages, cfg.seed, kServeVtime);
  std::tie(l.splice_s, l.splice_rows) = probe_splice(*s.g, cfg.seed);
  const auto ranks = s.eng->global_ranks();
  l.warm_start_s = per_call_seconds([&] { s.eng->warm_start(ranks); }, 0.0, 1);

  l.load_s = median(load_s);
  l.partition_s = median(partition_s);
  l.cut_fraction = partition::compute_partition_stats(*s.g, s.assignment, w.k).cut_fraction();
  l.wire_s = median(wire_s);
  l.sweeps = tc.sweeps;
  l.messages = tc.messages;
  l.records = tc.records;
  l.pool = pool_delta;
  l.publish_s = serve.publish_s;
  l.query_ns = 1e9 * serve.query_s;
  l.overhead_ratio = traced_wall / wall;
  return finish(check, per_layer_report(l));
}

// --- Recrawl while serving ---------------------------------------------------

/// One pass over the update batches, starting from a cold-converged
/// pipeline. Every batch is spliced, a successor engine is wired and warm
/// started incrementally with the predecessor's frontier carry, and ranks
/// until error <= 1e-6 while the query load reads the store. Each batch and
/// its reference are read from `inputs` just before the batch arrives and
/// dropped with the engine they served, so the harness holds one at a time.
struct BatchPass {
  std::vector<double> splice_s, prepare_s, wire_s, warm_s, run_s, refresh_s;
  std::vector<double> vtime, outer_steps, records, rows_changed;
  std::uint64_t sweeps = 0;
  std::uint64_t messages = 0;
  std::uint64_t records_total = 0;
  std::uint64_t checks = 0;
  std::vector<std::uint64_t> rows_computed;  // per group, summed over batches
  std::uint64_t rows_visited = 0;
  std::vector<double> publish_seconds;
  std::vector<double> query_ns;  // per batch: wall per completed query
  double query_seconds = 0.0;
  util::ThreadPool::Stats pool;

  [[nodiscard]] std::string signature() const {
    std::ostringstream os;
    os << std::setprecision(17);
    for (std::size_t i = 0; i < vtime.size(); ++i) {
      os << vtime[i] << ' ' << outer_steps[i] << ' ' << records[i] << ' ';
    }
    os << sweeps << ' ' << messages;
    return os.str();
  }
};

BatchPass run_batches(Checker& check, Pipeline& p, const Workload& w,
                      const engine::EngineOptions& eo, TimingSink& sink,
                      serve::SnapshotStore& store, const std::string& inputs,
                      std::uint32_t batches, std::uint64_t seed, util::ThreadPool& pool) {
  BatchPass pass;
  pass.rows_computed.assign(w.k, 0);
  const std::size_t publishes_before = sink.publish_seconds.size();
  const double queries_before = sink.query_seconds;
  serve::LoadGenerator load(store, p.g->num_pages(), load_options(seed));
  double offset = 0.0;
  const auto pool_before = pool.stats();
  for (std::uint32_t i = 1; i <= batches; ++i) {
    const auto ups = decode_batch(read_file(batch_path(inputs, i)));
    auto ref = read_doubles(ref_path(inputs, i));
    const auto arrival = Clock::now();
    auto t0 = arrival;
    auto delta = graph::apply_updates_delta(*p.g, ups);
    pass.splice_s.push_back(seconds_since(t0));
    check.expect(delta.incremental, "batch " + std::to_string(i) + " is incremental");
    pass.rows_changed.push_back(
        static_cast<double>(delta.in_changed.size() + delta.degree_changed.size()));

    t0 = Clock::now();
    const auto ranks = p.eng->global_ranks();
    auto carry = p.eng->export_worklist_carry();
    pass.prepare_s.push_back(seconds_since(t0));

    auto g_next = std::make_unique<graph::WebGraph>(std::move(delta.graph));
    sink.attach_load(&load, offset);
    const double query_s_before = sink.query_seconds;
    // RankServer's tally, not report(): report() sorts every latency so far.
    const auto queries_before_batch = load.server().queries();
    t0 = Clock::now();
    auto next = std::make_unique<engine::DistributedRanking>(*g_next, p.assignment, w.k,
                                                             eo, pool);
    pass.wire_s.push_back(seconds_since(t0));
    next->set_reference(std::move(ref));
    t0 = Clock::now();
    next->warm_start_incremental(ranks, std::move(carry), delta.in_changed,
                                 delta.degree_changed);
    pass.warm_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const auto r = next->run_until_error(kThreshold, kMaxVirtualTime, kCheckInterval);
    pass.run_s.push_back(seconds_since(t0));
    check.expect(r.reached && r.final_relative_error <= kThreshold,
                 "batch " + std::to_string(i) + " re-converged, error " +
                     json_number(r.final_relative_error));
    pass.refresh_s.push_back(seconds_since(arrival));
    pass.vtime.push_back(r.time);
    pass.outer_steps.push_back(r.mean_outer_steps);
    pass.records.push_back(static_cast<double>(r.records_sent));
    pass.records_total += r.records_sent;
    pass.sweeps += next->total_inner_sweeps();
    pass.messages += r.messages_sent;
    pass.checks += static_cast<std::uint64_t>(checks_for(r.time));
    for (std::uint32_t g = 0; g < w.k; ++g) {
      const auto& st = next->group(g).worklist_state();
      pass.rows_computed[g] += st.rows_computed;
      pass.rows_visited += st.rows_computed + st.rows_copied;
    }
    offset += r.time;
    const auto served = load.server().queries() - queries_before_batch;
    pass.query_ns.push_back(served ? 1e9 * (sink.query_seconds - query_s_before) /
                                         static_cast<double>(served)
                                   : 0.0);
    std::cout << w.name << " batch " << i << ": splice " << pass.splice_s.back()
              << " s, wire " << pass.wire_s.back() << " s, warm start "
              << pass.warm_s.back() << " s, run " << pass.run_s.back() << " s over vtime "
              << r.time << "\n";

    sink.attach_load(nullptr, 0.0);
    p.eng = std::move(next);  // the predecessor engine dies before its graph
    p.g = std::move(g_next);
  }
  pass.pool = pool.stats() - pool_before;
  pass.publish_seconds.assign(sink.publish_seconds.begin() +
                                  static_cast<std::ptrdiff_t>(publishes_before),
                              sink.publish_seconds.end());
  pass.query_seconds = sink.query_seconds - queries_before;
  check_queries(check, load);
  return pass;
}

int measure_recrawl(const MeasureConfig& cfg, util::ThreadPool& pool) {
  const Workload& w = cfg.w;
  Checker check;
  Guard cold_guard;
  Guard pass_guard;
  const std::string bytes = read_file(cfg.inputs + "/graph.bin");
  const std::vector<double> reference = read_doubles(ref_path(cfg.inputs, 0));
  serve::SnapshotStore store(16);
  TimingSink sink(store);
  auto eo = engine_options(w);
  eo.snapshot_sink = &sink;

  // Set-up: ingest, partition, wiring and the cold convergence of the
  // engine the recrawl starts from.
  std::vector<double> setup_s, load_s, partition_s, wire_s;
  std::size_t warmups = 0;
  const auto cold_pipeline = [&] {
    Pipeline p = build_pipeline(w, bytes, eo, pool);
    p.eng->set_reference(reference);
    const auto t0 = Clock::now();
    const auto r = p.eng->run_until_error(kThreshold, kMaxVirtualTime, kCheckInterval);
    const double run = seconds_since(t0);
    check.expect(r.reached && r.final_relative_error <= kThreshold,
                 "cold convergence reached error " + json_number(r.final_relative_error));
    cold_guard.note(check, counts_of(*p.eng, r).signature(), "cold convergence");
    const bool warmup = setup_s.size() + warmups < static_cast<std::size_t>(kWarmupReps);
    std::cout << w.name << " setup: load " << p.load_s << " s, partition "
              << p.partition_s << " s, wire " << p.wire_s << " s, cold run " << run
              << " s over vtime " << r.time << (warmup ? " (warm-up)" : "") << "\n";
    if (warmup) {
      ++warmups;
      return p;
    }
    setup_s.push_back(p.load_s + p.partition_s + p.wire_s + run);
    load_s.push_back(p.load_s);
    partition_s.push_back(p.partition_s);
    wire_s.push_back(p.wire_s);
    return p;
  };

  const int setups = kWarmupReps + (cfg.trace ? 1 : cfg.min_reps);
  Pipeline p;
  for (int i = 0; i < setups; ++i) {
    p.release();
    p = cold_pipeline();
  }
  const auto start = Clock::now();
  const BatchPass pass =
      run_batches(check, p, w, eo, sink, store, cfg.inputs, cfg.batches, cfg.seed, pool);
  const double pass_wall = seconds_since(start);
  pass_guard.note(check, pass.signature(), "batch pass");

  check.expect(counts_match_history(
                   cfg.counts_file,
                   w.name + " seed=" + std::to_string(cfg.seed) +
                       " pages=" + std::to_string(reference.size()) +
                       " batches=" + std::to_string(cfg.batches),
                   *cold_guard.first + " | " + pass.signature()),
               "determinism: counts differ from an earlier process of this binary");
  if (!cfg.trace) {
    return finish(check, end_to_end_report({setup_s, pass.refresh_s, median(pass.vtime),
                                            median(pass.outer_steps),
                                            median(pass.records)}));
  }

  // Traced pass from a fresh cold-converged engine, successors observed.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  auto teo = eo;
  teo.metrics = &registry;
  teo.tracer = &tracer;
  p.release();
  p = cold_pipeline();
  const auto tstart = Clock::now();
  const BatchPass traced =
      run_batches(check, p, w, teo, sink, store, cfg.inputs, cfg.batches, cfg.seed, pool);
  const double traced_wall = seconds_since(tstart);
  pass_guard.note(check, traced.signature(), "traced batch pass");
  check.expect(registry.counter_value(obs::names::kEngineMessagesSent) == traced.messages,
               "metrics observer agrees with the engines' message count");

  Layers l;
  l.costs = measure_layer_costs(*p.eng, *p.g, pool);
  const LayerCosts& c = l.costs;
  for (std::uint32_t g = 0; g < w.k; ++g) {
    if (c.dims[g] > 0) {
      l.kernel_s += static_cast<double>(traced.rows_computed[g]) * c.sweep_s[g] /
                    static_cast<double>(c.dims[g]);
    }
  }
  l.exchange_s = static_cast<double>(pass.records_total) *
                 (c.compute_y_ns_per_record() + c.refresh_x_ns_per_record()) * 1e-9;
  l.check_s = static_cast<double>(pass.checks) * c.check_s;
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double run_total = sum(pass.run_s);
  l.other_s = print_closure("re-convergence runs over all batches",
                            {{"rank.kernel_s", l.kernel_s},
                             {"exchange.s", l.exchange_s},
                             {"engine.check_s", l.check_s},
                             {"serve.publish_s", sum(pass.publish_seconds)},
                             {"serve.query_s", pass.query_seconds}},
                            run_total);
  print_closure("batch refreshes (arrival to re-converged)",
                {{"graph.splice_s", sum(pass.splice_s)},
                 {"engine.carry_export_s", sum(pass.prepare_s)},
                 {"engine.wire_s", sum(pass.wire_s)},
                 {"engine.warm_start_s", sum(pass.warm_s)},
                 {"re-convergence runs", run_total}},
                sum(pass.refresh_s), "other");
  std::cout << "traced pass wall " << traced_wall << " s vs untraced " << pass_wall
            << " s, " << tracer.size() << " trace events (" << tracer.dropped()
            << " dropped)\n";

  std::uint64_t computed = 0;
  for (const auto n : traced.rows_computed) computed += n;
  l.load_s = median(load_s);
  l.splice_s = median(pass.splice_s);
  l.splice_rows = median(pass.rows_changed);
  l.partition_s = median(partition_s);
  l.cut_fraction = partition::compute_partition_stats(*p.g, p.assignment, w.k).cut_fraction();
  l.wire_s = median(pass.wire_s);
  l.warm_start_s = median(pass.warm_s);
  l.sweeps = traced.sweeps;
  l.recompute_ratio =
      ratio(static_cast<double>(computed), static_cast<double>(traced.rows_visited));
  l.messages = traced.messages;
  l.records = traced.records_total;
  l.pool = pass.pool;
  l.publishes = pass.publish_seconds.size();
  l.publish_s = median(pass.publish_seconds);
  l.query_ns = median(pass.query_ns);
  l.overhead_ratio = traced_wall / pass_wall;
  return finish(check, per_layer_report(l));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release" && build_type != "RelWithDebInfo") {
      std::cerr << "perfbench: refusing to measure a '" << build_type
                << "' build; configure Release or RelWithDebInfo\n";
      return 2;
    }
    if (argc < 2) {
      std::cerr << "usage: tta_bench gen|measure --key value ...\n";
      return 2;
    }
    const std::string cmd = argv[1];
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "gen") return run_gen(args);
    if (cmd != "measure") throw std::invalid_argument("unknown command " + cmd);

    MeasureConfig cfg;
    cfg.w = find_workload(args.str("workload"));
    cfg.seed = args.num("seed");
    cfg.seconds = std::stod(args.str("seconds"));
    cfg.trace = args.num("trace") != 0;
    cfg.inputs = args.str("inputs");
    cfg.counts_file = args.str("counts", "");
    cfg.batches = static_cast<std::uint32_t>(args.num("batches", 0));
    cfg.min_reps = static_cast<int>(args.num("min-reps", 3));
    util::ThreadPool pool(kPoolWorkers);
    std::cout << "fingerprint: build " << build_type << ", compiler "
              << PERFBENCH_CXX_COMPILER << ", pool workers " << pool.size()
              << ", nproc " << std::thread::hardware_concurrency() << ", seed "
              << cfg.seed << ", graph seed " << kGraphSeed << ", engine seed " << kEngineSeed
              << "\n";
    return cfg.w.recrawl ? measure_recrawl(cfg, pool) : measure_cold(cfg, pool);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
