// bench_report — machine-readable engine-level benchmark snapshots. Each
// mode appends one labelled run to its own BENCH_*.json file (created when
// missing or empty), so results accumulate across changes. An existing --out
// that is not a bench_report file under the mode's schema tag is refused
// before anything is measured, and left untouched. A mode flag is required;
// kernel throughput lives in bench/micro_kernels. The engine modes run on
// the crawl, round-robin partition and reference of experiment.hpp.
//
// --reliability runs the reliable-exchange benchmark (Fig. 7 analogue,
// EXPERIMENTS.md "p sweep with retransmission"): it sweeps the delivery
// probability p and, at each level, runs the SAME graph + seed to the
// convergence threshold under both channel schemes — the paper's
// fire-and-forget and the reliable exchange layer (EngineOptions::reliable) —
// and appends virtual convergence time plus the full message accounting
// (retransmissions, acks, duplicate rejections, retransmit overhead) to
// BENCH_reliability.json with schema "p2prank-reliability-bench-v1".
//
// --obs measures the observability tax (DESIGN.md §11): the same engine run
// — DPR2 on the standard 50k-page graph, advanced span by span of virtual
// time — once bare and once with a MetricsRegistry + Tracer attached, and
// appends both wall-clock timings plus the overhead ratio to BENCH_obs.json
// with schema "p2prank-obs-bench-v1". The contract is overhead < 5%.
//
// --serve measures the rank-serving layer (DESIGN.md §12): snapshot-publish
// overhead on the sweep (bare vs sink-attached engine — contract < 5%), then
// a closed-loop run of N simulated clients (default 10000) querying the live
// SnapshotStore in virtual time while the engine sweeps underneath, appending
// QPS, p50/p99 latency, and the torn/stale/availability accounting to
// BENCH_serve.json with schema "p2prank-serve-bench-v1". Any torn-epoch read
// fails the run. --serve --determinism-check instead byte-compares the query
// stream, final snapshot, and result checksum across a repeated run and pool
// sizes {1,2}, exiting nonzero on any difference.
//
// --recovery measures the partition-tolerance layer (DESIGN.md §13): a
// reliable-transport engine with a RecoverySupervisor and a SnapshotStore
// attached runs a fixed schedule of hard-cut episodes (cut → evict → degraded
// serving → heal → rejoin), with frame corruption live during each outage.
// Per episode it records the eviction latency (cut → quorum eviction) and
// rejoin latency (heal → readmission), and throughout it runs the
// bounded-staleness EXTERNAL audit: every query recomputes the snapshot age
// from publish_time and cross-checks the server's beyond_bound flag — any
// mismatch is a stale-bound violation, and the contract (plus the exit code)
// requires exactly zero. Appends to BENCH_recovery.json with schema
// "p2prank-recovery-bench-v1"; torn reads, checksum-collision applications,
// or a missed eviction/rejoin also fail the run.
//
// --scale is the DESIGN.md §14 scale sweep: for each requested row (default
// 1M and 10M pages) it generates a synthetic web (edges streamed through the
// builder's two-pass assembly, never buffered whole), round-trips it
// through the binary edge-list format, runs a fixed
// number of bounded rank sweeps, and then measures the update path — a
// 1k-edge link-only delta applied via the incremental splice vs the full
// rebuild oracle. Appends rows to BENCH_scale.json with schema
// "p2prank-scale-bench-v1". Contract (enforced by exit code): on rows of
// >= 1M pages the incremental splice must beat the rebuild by >= 10x.
// --scale --determinism-check instead runs the small bitwise gates wired
// into tier-bench-smoke: streamed generator == buffered build of its
// shuffled links, binary round-trip identity, splice == rebuild CSR, and
// incremental warm-start == rebuild-then-warm-start rank vectors.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "experiment.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_updates.hpp"
#include "rank/link_matrix.hpp"
#include "recover/supervisor.hpp"
#include "util/rng.hpp"

namespace {

using namespace p2prank;
using tools::Experiment;
using tools::make_experiment;
using Clock = std::chrono::steady_clock;

struct Options {
  std::uint32_t pages = 50000;
  std::uint64_t seed = 42;
  double alpha = 0.85;
  int repetitions = 5;
  double min_rep_seconds = 0.4;
  std::string label = "run";
  std::string out;  // default depends on mode
  // --reliability mode.
  bool reliability = false;
  std::uint32_t k = 16;
  double error_threshold = 1e-8;
  double max_time = 20000.0;
  // --obs mode.
  bool obs = false;
  // --serve mode.
  bool serve = false;
  bool determinism_check = false;
  std::uint32_t clients = 10000;
  double serve_duration = 200.0;  // virtual time of the closed-loop phase
  // --recovery mode.
  bool recovery = false;
  std::uint32_t episodes = 4;
  // --scale mode.
  bool scale = false;
  std::vector<std::uint64_t> scale_rows;  // default {1M, 10M}
  int scale_sweeps = 8;
  std::size_t delta_edges = 1000;
};

/// Best-of-`repetitions` timing of one body: each repetition runs the body
/// until `min_rep_seconds` elapse and reports ns per call; the minimum over
/// repetitions filters scheduler noise.
template <typename Body>
double time_variant(const Options& opts, const Body& body) {
  for (int i = 0; i < 3; ++i) body();  // warm caches and scratch
  double best_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < opts.repetitions; ++rep) {
    std::size_t sweeps = 0;
    const auto start = Clock::now();
    Clock::time_point now;
    do {
      body();
      ++sweeps;
      now = Clock::now();
    } while (std::chrono::duration<double>(now - start).count() < opts.min_rep_seconds);
    const double ns =
        std::chrono::duration<double, std::nano>(now - start).count() /
        static_cast<double>(sweeps);
    best_ns = std::min(best_ns, ns);
  }
  return best_ns;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Fixed-notation JSON number. Default ostream formatting flips between
/// integer-looking and 9.47164e+08-style scientific output depending on the
/// measured magnitude, so consecutive runs of the same tool did not diff
/// cleanly. Magnitude-banded precision keeps throughputs fixed-point and
/// tiny thresholds exact, and the same value always renders the same way.
std::string json_number(double v) {
  std::ostringstream t;
  const double a = std::abs(v);
  if (a != 0.0 && (a >= 1e15 || a < 1e-6)) {
    t << std::scientific << std::setprecision(6) << v;
  } else {
    t << std::fixed << std::setprecision(3) << v;
  }
  return t.str();
}

/// One run record of a BENCH_*.json file: (key, value) fields in the order
/// added. Doubles render through json_number, integers plainly, bools as
/// true/false and anything else as an escaped string; a list of row records
/// renders one row object per line.
class Record {
 public:
  template <typename T>
  Record& add(const std::string& key, const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      fields_.emplace_back(key, value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      fields_.emplace_back(key, std::to_string(value));
    } else if constexpr (std::is_floating_point_v<T>) {
      fields_.emplace_back(key, json_number(value));
    } else {
      fields_.emplace_back(key, "\"" + json_escape(value) + "\"");
    }
    return *this;
  }
  Record& add(const std::string& key, const std::vector<Record>& rows) {
    std::string list = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      list += "        " + rows[i].row_json() + (i + 1 < rows.size() ? ",\n" : "\n");
    }
    fields_.emplace_back(key, list + "      ]");
    return *this;
  }

  /// As an element of the "runs" array: one field per line.
  [[nodiscard]] std::string run_json() const {
    std::string out = "    {\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += "      \"" + fields_[i].first + "\": " + fields_[i].second +
             (i + 1 < fields_.size() ? ",\n" : "\n");
    }
    return out + "    }";
  }

 private:
  [[nodiscard]] std::string row_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " +
             fields_[i].second;
    }
    return out + "}";
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The BENCH_*.json file a mode appends its run to, created when missing or
/// empty. It is opened before any measurement: a non-empty file that this
/// tool did not write under the same schema tag is refused and left as it
/// is, so --out never replaces a foreign file or mixes two modes' records.
class Report {
 public:
  Report(const Options& opts, std::string schema)
      : path_(opts.out), label_(opts.label), schema_(std::move(schema)) {
    (void)runs_so_far();
  }

  void append(const Record& run) const {
    const std::string runs = runs_so_far();
    std::ofstream out(path_, std::ios::trunc);
    if (!out) throw std::runtime_error("bench_report: cannot write " + path_);
    out << (runs.empty() ? header() : runs + ",\n") << run.run_json() << kTail;
    std::cout << "appended run \"" << label_ << "\" to " << path_ << "\n";
  }

 private:
  static constexpr std::string_view kTail = "\n  ]\n}\n";

  [[nodiscard]] std::string header() const {
    return "{\n  \"schema\": \"" + schema_ + "\",\n  \"runs\": [\n";
  }

  /// The file's bytes before its closing tail; empty if the file is missing
  /// or empty.
  [[nodiscard]] std::string runs_so_far() const {
    std::ostringstream buf;
    if (std::ifstream in(path_, std::ios::binary); in) buf << in.rdbuf();
    std::string bytes = buf.str();
    if (bytes.empty()) return bytes;
    const std::string head = header();
    if (bytes.size() < head.size() + kTail.size() || !bytes.starts_with(head) ||
        !bytes.ends_with(kTail)) {
      throw std::runtime_error("bench_report: refusing to write " + path_ +
                               ": not a bench_report file with schema \"" +
                               schema_ + "\"");
    }
    bytes.resize(bytes.size() - kTail.size());
    return bytes;
  }

  std::string path_;
  std::string label_;
  std::string schema_;
};

/// The fields that open a record on one experiment graph.
Record graph_record(const Options& opts, const Experiment& e) {
  Record r;
  r.add("label", opts.label)
      .add("pages", opts.pages)
      .add("edges", e.edges())
      .add("k", opts.k)
      .add("graph_seed", opts.seed);
  return r;
}

// --- Reliability benchmark ---------------------------------------------------

/// One run to the error threshold on the standard synthetic graph, modulo
/// the channel scheme. Same graph, same partition, same engine seed across
/// every point: the only varying inputs are p and the scheme.
engine::ConvergenceResult run_reliability_point(const Experiment& e,
                                                const Options& opts, double p,
                                                bool reliable,
                                                util::ThreadPool& pool) {
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.alpha = opts.alpha;
  eo.delivery_probability = p;
  // A fixed mean wait makes the schemes comparable per loss: a dropped
  // slice costs fire-and-forget a whole loop period (the next full resend),
  // while retransmission recovers it after one RTO. The default [t1, t2] =
  // [0, 6] spread would blur that signal across groups.
  eo.t1 = 4.0;
  eo.t2 = 4.0;
  eo.seed = opts.seed ^ 0xabcdef12345ULL;
  eo.reliable = reliable;  // epochs, acks, retransmission, failure detection
  engine::DistributedRanking sim(e.graph, e.assignment, e.k, eo, pool);
  sim.set_reference(e.reference);
  return sim.run_until_error(opts.error_threshold, opts.max_time, 1.0);
}

int run_reliability_bench(const Options& opts, const Report& report) {
  auto& pool = util::ThreadPool::shared();
  const Experiment e =
      make_experiment(opts.pages, opts.seed, opts.k, opts.alpha, pool);

  static constexpr double kLevels[] = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  std::vector<Record> points;
  for (const double p : kLevels) {
    for (const bool reliable : {false, true}) {
      const engine::ConvergenceResult r =
          run_reliability_point(e, opts, p, reliable, pool);
      std::cout << "  p=" << p << ' '
                << (reliable ? "reliable       " : "fire-and-forget")
                << "  t=" << r.time << (r.reached ? "" : " (NOT converged)")
                << "  msgs=" << r.messages_sent
                << " rexmit=" << r.retransmissions
                << " dups=" << r.duplicates_rejected << "\n";
      const double overhead =
          r.messages_sent == 0
              ? 0.0
              : static_cast<double>(r.retransmissions) /
                    static_cast<double>(r.messages_sent);
      points.push_back(
          Record()
              .add("delivery_p", p)
              .add("scheme", reliable ? "reliable" : "fire_and_forget")
              .add("reached", r.reached)
              .add("time", r.time)
              .add("mean_outer_steps", r.mean_outer_steps)
              .add("messages_sent", r.messages_sent)
              .add("messages_lost", r.messages_lost)
              .add("retransmissions", r.retransmissions)
              .add("acks_sent", r.acks_sent)
              .add("duplicates_rejected", r.duplicates_rejected)
              .add("retransmit_overhead", overhead)
              .add("final_relative_error", r.final_relative_error));
    }
  }

  report.append(graph_record(opts, e)
                    .add("alpha", opts.alpha)
                    .add("error_threshold", opts.error_threshold)
                    .add("points", points));
  return 0;
}

// --- Observability overhead benchmark ----------------------------------------

int run_obs_bench(const Options& opts, const Report& report) {
  auto& pool = util::ThreadPool::shared();
  const Experiment e =
      make_experiment(opts.pages, opts.seed, opts.k, opts.alpha, pool);

  const auto make_engine = [&](p2prank::obs::MetricsRegistry* m,
                               p2prank::obs::Tracer* t) {
    engine::EngineOptions eo;
    eo.algorithm = engine::Algorithm::kDPR2;
    eo.alpha = opts.alpha;
    eo.seed = opts.seed ^ 0x0b5e55ULL;
    eo.metrics = m;
    eo.tracer = t;
    auto sim = std::make_unique<engine::DistributedRanking>(
        e.graph, e.assignment, e.k, eo, pool);
    sim->set_reference(e.reference);
    return sim;
  };

  // Each body call advances its engine by the same span of virtual time.
  // The sweep/exchange timers keep firing whether or not the run has
  // converged, so every span does the same simulated work — exactly the
  // steady-state hot path the <5% overhead contract covers.
  constexpr double kSpan = 10.0;
  p2prank::obs::MetricsRegistry metrics;
  p2prank::obs::Tracer tracer;
  auto baseline = make_engine(nullptr, nullptr);
  auto instrumented = make_engine(&metrics, &tracer);
  double base_t = 0.0;
  double instr_t = 0.0;
  const double baseline_ns = time_variant(opts, [&] {
    base_t += kSpan;
    (void)baseline->run(base_t, kSpan);
  });
  const double instrumented_ns = time_variant(opts, [&] {
    instr_t += kSpan;
    (void)instrumented->run(instr_t, kSpan);
  });

  const double overhead = instrumented_ns / baseline_ns - 1.0;
  std::cout << "graph: " << opts.pages << " pages, " << e.edges() << " edges; k="
            << opts.k << "; pool " << pool.size() << " thread(s)\n"
            << "  bare:         " << baseline_ns / 1e6 << " ms per " << kSpan
            << " virtual time units\n"
            << "  instrumented: " << instrumented_ns / 1e6 << " ms per " << kSpan
            << " virtual time units\n"
            << "  overhead:     " << overhead * 100.0 << "% ("
            << tracer.size() << " trace events, " << tracer.dropped()
            << " dropped)\n";
  report.append(graph_record(opts, e)
                    .add("alpha", opts.alpha)
                    .add("pool_threads", pool.size())
                    .add("span_virtual_time", kSpan)
                    .add("baseline_ns_per_span", baseline_ns)
                    .add("instrumented_ns_per_span", instrumented_ns)
                    .add("overhead", overhead)
                    .add("trace_events", tracer.size())
                    .add("trace_dropped", tracer.dropped()));
  return 0;
}

// --- Rank-serving benchmark --------------------------------------------------

constexpr std::uint32_t kServeServers = 64;

/// The closed-loop serving run of --serve and of its determinism check:
/// opts.clients clients on kServeServers service slots, with a snapshot
/// indexing the top 16 pages published every 1.0 of virtual time.
tools::ServeRun bench_serve_run(const Experiment& e, const Options& opts,
                                util::ThreadPool& pool, bool record_stream) {
  serve::LoadGenOptions lg;
  lg.clients = opts.clients;
  lg.servers = kServeServers;
  lg.seed = opts.seed ^ 0x10adULL;
  lg.record_stream = record_stream;
  return tools::serve_run(e, lg, /*snapshot_interval=*/1.0,
                          /*top_k_capacity=*/16, opts.serve_duration, pool);
}

/// Forwards RankSnapshotSink calls to the real store while timing each
/// publish at the call site — the measurement side of run_serve_bench's
/// direct-attribution overhead estimate.
class TimingSink final : public engine::RankSnapshotSink {
 public:
  explicit TimingSink(engine::RankSnapshotSink& inner) : inner_(inner) {}

  void publish_groups(double time, std::span<const engine::GroupCut> groups,
                      std::uint32_t num_pages,
                      std::uint64_t ownership_version) override {
    const auto t0 = Clock::now();
    inner_.publish_groups(time, groups, num_pages, ownership_version);
    record(t0);
  }
  void invalidate(double time) override { inner_.invalidate(time); }

  /// Median nanoseconds over all recorded publishes (0 if none) — robust
  /// against the occasional publish that eats a scheduler preemption.
  [[nodiscard]] double median_ns() const {
    if (samples_.empty()) return 0.0;
    std::vector<double> s = samples_;
    const auto mid = s.begin() + static_cast<std::ptrdiff_t>(s.size() / 2);
    std::nth_element(s.begin(), mid, s.end());
    return *mid;
  }

 private:
  void record(Clock::time_point t0) {
    samples_.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }

  engine::RankSnapshotSink& inner_;
  std::vector<double> samples_;
};

int run_serve_bench(const Options& opts, const Report& report) {
  auto& pool = util::ThreadPool::shared();
  // Phase 1 graph at full scale (default 50k pages, like the obs bench):
  // the publish-overhead ratio only means something where sweeps carry
  // their real memory traffic.
  const Experiment e =
      make_experiment(opts.pages, opts.seed, opts.k, opts.alpha, pool);

  // Phase 1 — publish overhead: a sweep span, bare vs with a SnapshotStore
  // attached, publishing once per mean outer iteration ((t1+t2)/2 of the
  // step timer — the "snapshot after each outer iteration" cadence of
  // DESIGN.md §12). The serving contract caps the slowdown at < 5%.
  //
  // The criterion is computed by DIRECT ATTRIBUTION: each publish is timed
  // at the sink and its per-virtual-time-unit cost is divided by a
  // low-quantile sweep cost. On a shared machine the span timings carry
  // ±50% scheduler bursts, so the difference of two noisy span populations
  // cannot resolve a few-percent effect; a median over ~100 individually
  // timed publishes and a 10th-percentile sweep floor can.
  const double snapshot_interval = [] {
    engine::EngineOptions defaults;
    return 0.5 * (defaults.t1 + defaults.t2);
  }();
  const auto make_engine = [&](engine::RankSnapshotSink* sink) {
    engine::EngineOptions eo = tools::serving_engine_options(e);
    eo.snapshot_sink = sink;
    eo.snapshot_interval = snapshot_interval;
    auto sim = std::make_unique<engine::DistributedRanking>(
        e.graph, e.assignment, e.k, eo, pool);
    sim->set_reference(e.reference);
    return sim;
  };
  constexpr double kSpan = 10.0;
  serve::SnapshotStore overhead_store(/*top_k_capacity=*/16);
  TimingSink timed_sink(overhead_store);
  auto bare = make_engine(nullptr);
  auto serving = make_engine(&timed_sink);
  double bare_t = 0.0;
  double serving_t = 0.0;
  const auto time_span = [](engine::DistributedRanking& sim, double& t) {
    const auto start = Clock::now();
    t += kSpan;
    (void)sim.run(t, kSpan);
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  // Interleave bare/serving spans so both variants sample the same machine
  // conditions with their virtual clocks in lockstep; the reported span
  // costs are 10th percentiles (burst noise is purely additive, so a low
  // quantile estimates the undisturbed cost).
  std::vector<double> bare_spans;
  std::vector<double> serving_spans;
  for (int i = 0; i < 3; ++i) {  // warm caches and scratch
    time_span(*bare, bare_t);
    time_span(*serving, serving_t);
  }
  const int reps = std::max(opts.repetitions * 4, 20);
  for (int rep = 0; rep < reps; ++rep) {
    bare_spans.push_back(time_span(*bare, bare_t));
    serving_spans.push_back(time_span(*serving, serving_t));
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  const double baseline_ns = quantile(bare_spans, 0.1);
  const double serving_ns = quantile(serving_spans, 0.1);
  const double publish_ns = timed_sink.median_ns();
  const double overhead =
      (publish_ns / snapshot_interval) / (baseline_ns / kSpan);

  // Phase 2 — the closed-loop run: `clients` simulated clients querying the
  // live store while the engine sweeps underneath, all in virtual time. A
  // smaller graph keeps the co-simulated wall time sane; the serving-side
  // numbers (QPS, latency, epoch accounting) don't need the 50k sweeps.
  const std::uint32_t loadgen_pages = std::min<std::uint32_t>(opts.pages, 2000);
  const Experiment loop =
      make_experiment(loadgen_pages, opts.seed, opts.k, opts.alpha, pool);
  const auto wall_start = Clock::now();
  const tools::ServeRun run =
      bench_serve_run(loop, opts, pool, /*record_stream=*/false);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  const auto& r = run.report;
  std::cout << "overhead graph: " << opts.pages << " pages, " << e.edges()
            << " edges; closed-loop graph: " << loadgen_pages << " pages; k="
            << opts.k << "; pool " << pool.size() << " thread(s)\n"
            << "  publish overhead: " << overhead * 100.0 << "% (median "
            << "publish " << publish_ns / 1e3 << " us every "
            << snapshot_interval << " virtual time units; p10 sweep spans "
            << baseline_ns / 1e6 << " -> " << serving_ns / 1e6 << " ms per "
            << kSpan << " units)\n"
            << "  closed loop: " << opts.clients << " clients, "
            << r.completed << " queries in " << r.duration
            << " virtual time units (" << wall_s << " s wall)\n"
            << "  qps=" << r.qps << " p50=" << r.p50 << " p99=" << r.p99
            << " max_queue_depth=" << r.max_queue_depth << "\n"
            << "  torn_reads=" << r.torn_reads << " stale_reads="
            << r.stale_reads << " unavailable=" << r.unavailable
            << " snapshots=" << run.snapshots_published << " (reused "
            << run.buffer_reuses << " buffers)\n";

  Record record;
  record.add("label", opts.label)
      .add("pages", opts.pages)
      .add("edges", e.edges())
      .add("loadgen_pages", loadgen_pages)
      .add("k", opts.k)
      .add("graph_seed", opts.seed)
      .add("pool_threads", pool.size())
      .add("clients", opts.clients)
      .add("servers", kServeServers)
      .add("duration_virtual", opts.serve_duration)
      .add("baseline_ns_per_span", baseline_ns)
      .add("serving_ns_per_span", serving_ns)
      .add("publish_ns_per_snapshot", publish_ns)
      .add("snapshot_interval", snapshot_interval)
      .add("publish_overhead", overhead)
      .add("qps", r.qps)
      .add("p50", r.p50)
      .add("p99", r.p99)
      .add("max_latency", r.max_latency)
      .add("issued", r.issued)
      .add("completed", r.completed)
      .add("point_queries", r.point_queries)
      .add("topk_queries", r.topk_queries)
      .add("torn_reads", r.torn_reads)
      .add("stale_reads", r.stale_reads)
      .add("unavailable", r.unavailable)
      .add("max_queue_depth", r.max_queue_depth)
      .add("snapshots_published", run.snapshots_published)
      .add("buffer_reuses", run.buffer_reuses)
      .add("checksum", r.checksum);
  report.append(record);
  if (r.torn_reads != 0) {
    std::cerr << "bench_report: FAIL — " << r.torn_reads
              << " torn-epoch read(s); the serving contract requires zero\n";
    return 1;
  }
  return 0;
}

/// --serve --determinism-check: the serving stack must be a pure function
/// of its seeds — same run twice, and again on a different pool size, must
/// produce byte-identical query streams, reports, and final snapshots.
int run_serve_determinism_check(Options opts) {
  opts.pages = std::min<std::uint32_t>(opts.pages, 2000);
  opts.clients = std::min<std::uint32_t>(opts.clients, 256);
  opts.serve_duration = std::min(opts.serve_duration, 30.0);

  const auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    return bench_serve_run(
        make_experiment(opts.pages, opts.seed, opts.k, opts.alpha, pool), opts,
        pool, /*record_stream=*/true);
  };
  const tools::ServeRun a = run_with_pool(1);
  const tools::ServeRun b = run_with_pool(1);
  const tools::ServeRun c = run_with_pool(2);

  bool ok = true;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "bench_report: serve determinism FAIL — " << what << "\n";
      ok = false;
    }
  };
  expect(!a.stream.empty(), "empty query stream");
  expect(a.stream == b.stream, "query stream differs between identical runs");
  expect(a.stream == c.stream, "query stream differs across pool sizes 1 vs 2");
  expect(a.snapshot == b.snapshot,
         "final snapshot differs between identical runs");
  expect(a.snapshot == c.snapshot,
         "final snapshot differs across pool sizes 1 vs 2");
  expect(a.report.checksum == b.report.checksum,
         "result checksum differs between identical runs");
  expect(a.report.checksum == c.report.checksum,
         "result checksum differs across pool sizes 1 vs 2");
  expect(a.report.torn_reads == 0, "torn-epoch reads in determinism run");
  if (ok) {
    std::cout << "serve determinism check passed: " << a.report.completed
              << " queries, checksum " << a.report.checksum
              << ", identical across repeat + pool sizes {1,2}\n";
  }
  return ok ? 0 : 1;
}

// --- Recovery benchmark ------------------------------------------------------

/// One hard-cut outage: the measured timestamps and whether both state
/// transitions actually happened (a miss fails the whole run).
struct RecoveryEpisode {
  std::uint32_t victim = 0;
  double cut_time = 0.0;
  double evict_time = 0.0;
  double heal_time = 0.0;
  double rejoin_time = 0.0;
  bool evicted = false;
  bool rejoined = false;
};

int run_recovery_bench(const Options& opts, const Report& report) {
  auto& pool = util::ThreadPool::shared();
  // The round-robin partition makes victim-owned probe pages trivial to
  // name: page v belongs to ranker v.
  const Experiment e =
      make_experiment(opts.pages, opts.seed, opts.k, opts.alpha, pool);

  // Fast step cadence so detection latency reflects the supervisor's
  // escalation (quorum + streak), not a leisurely exchange timer; a sparse
  // publish cadence against a tighter staleness bound so BOTH branches of
  // the external audit run constantly — queries alternate between fresh
  // (age <= bound) and degraded (age > bound, flag required).
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.alpha = opts.alpha;
  eo.t1 = 0.5;
  eo.t2 = 1.0;
  eo.seed = opts.seed ^ 0x4ec04e4ULL;
  eo.reliable = true;
  serve::SnapshotStore store(/*top_k_capacity=*/16);
  eo.snapshot_sink = &store;
  eo.snapshot_interval = 4.0;
  constexpr double kStaleBound = 2.0;
  constexpr double kTick = 1.0;

  engine::DistributedRanking sim(e.graph, e.assignment, e.k, eo, pool);
  sim.set_reference(e.reference);
  recover::SupervisorOptions so;
  so.serve_store = &store;
  recover::RecoverySupervisor sup(sim, so);
  serve::RankServer server(store);
  server.set_staleness_bound(kStaleBound);

  // The external staleness audit: recompute the snapshot's age from its own
  // publish_time and demand the flag match, per query, on every query shape.
  // This is deliberately OUTSIDE the flagging path (snapshot.cpp computes
  // the same predicate from the same inputs; the audit catches either side
  // drifting — e.g. a future cache that serves a stale flag with a fresh
  // snapshot).
  std::uint64_t stale_bound_violations = 0;
  const auto check = [&](double now, bool served, bool beyond,
                         double publish_time) {
    if (!served) return;
    const bool should = now - publish_time > kStaleBound;
    if (should != beyond) ++stale_bound_violations;
  };
  const std::uint32_t probe_page = opts.k - 1;  // owned by the last ranker,
                                                // never a victim below
  const auto audit = [&](std::uint32_t victim) {
    const double now = sim.now();
    const auto pr = server.rank(probe_page, now);
    check(now, pr.served, pr.beyond_bound, pr.publish_time);
    const auto vr = server.rank(victim, now);  // page `victim` is shard-local
    check(now, vr.served, vr.beyond_bound, vr.publish_time);
    const auto tk = server.top_k(8, now);
    check(now, tk.served, tk.beyond_bound, tk.publish_time);
    const auto sk = server.shard_top_k(victim, 4, now);
    check(now, sk.served, sk.beyond_bound, sk.publish_time);
  };
  const auto drive = [&](std::uint32_t victim, double until, auto done) {
    while (sim.now() < until) {
      (void)sim.run(sim.now() + kTick, kTick);
      sup.tick(sim.now());
      audit(victim);
      if (done()) break;
    }
  };

  std::vector<RecoveryEpisode> episodes;
  bool ok = true;
  constexpr double kEpisodeTimeout = 300.0;
  constexpr double kDegradedDwell = 10.0;
  for (std::uint32_t i = 0; i < opts.episodes; ++i) {
    RecoveryEpisode ep;
    ep.victim = i % (opts.k - 1);  // rotate, keep probe_page's ranker healthy
    ep.cut_time = sim.now();
    sim.set_partition(std::uint64_t{1} << ep.victim, 0.0, 0.0);
    sim.set_corruption(0.25);  // every outage also stresses the codec
    drive(ep.victim, ep.cut_time + kEpisodeTimeout, [&] {
      return sup.state(ep.victim) == recover::RankerState::kEvicted;
    });
    ep.evicted = sup.state(ep.victim) == recover::RankerState::kEvicted;
    ep.evict_time = sim.now();
    // Dwell evicted: degraded serving against the down shard is the point.
    drive(ep.victim, sim.now() + kDegradedDwell, [] { return false; });
    ep.heal_time = sim.now();
    sim.heal_partition();
    sim.set_corruption(0.0);
    drive(ep.victim, ep.heal_time + kEpisodeTimeout, [&] {
      return sup.state(ep.victim) == recover::RankerState::kHealthy;
    });
    ep.rejoined = sup.state(ep.victim) == recover::RankerState::kHealthy;
    ep.rejoin_time = sim.now();
    if (!ep.evicted || !ep.rejoined) {
      std::cerr << "bench_report: FAIL — episode " << i << " victim "
                << ep.victim << (ep.evicted ? " never rejoined" : " never evicted")
                << " within " << kEpisodeTimeout << " virtual time units\n";
      ok = false;
    }
    episodes.push_back(ep);
    std::cout << "  episode " << i << ": victim " << ep.victim
              << "  evict latency " << ep.evict_time - ep.cut_time
              << "  rejoin latency " << ep.rejoin_time - ep.heal_time << "\n";
  }

  // All members back: the handoffs must have conserved pages, so the run
  // still reaches the reference fixed point.
  const engine::ConvergenceResult reconverge =
      sim.run_until_error(1e-6, sim.now() + 4000.0, 2.0);

  const engine::EngineCounters counts = sim.counters();
  std::cout << "graph: " << opts.pages << " pages, " << e.edges() << " edges; k="
            << opts.k << "; " << episodes.size() << " episode(s)\n"
            << "  evictions=" << sup.evictions() << " rejoins=" << sup.rejoins()
            << " partition_drops=" << counts.partition_drops
            << " frames_quarantined=" << counts.frames_quarantined << "\n"
            << "  queries=" << server.queries() << " degraded="
            << server.degraded_reads() << " shard_down="
            << server.shard_down_reads() << " stale_bound_violations="
            << stale_bound_violations << "\n"
            << "  reconverged=" << (reconverge.reached ? "yes" : "NO")
            << " at t=" << reconverge.time << " (err="
            << reconverge.final_relative_error << ")\n";

  double evict_sum = 0.0, evict_max = 0.0, rejoin_sum = 0.0, rejoin_max = 0.0;
  std::vector<Record> rows;
  for (const auto& ep : episodes) {
    const double ev = ep.evict_time - ep.cut_time;
    const double rj = ep.rejoin_time - ep.heal_time;
    evict_sum += ev;
    evict_max = std::max(evict_max, ev);
    rejoin_sum += rj;
    rejoin_max = std::max(rejoin_max, rj);
    rows.push_back(Record()
                       .add("victim", ep.victim)
                       .add("cut_time", ep.cut_time)
                       .add("eviction_latency", ev)
                       .add("heal_time", ep.heal_time)
                       .add("rejoin_latency", rj));
  }
  const double n = episodes.empty() ? 1.0 : static_cast<double>(episodes.size());
  report.append(graph_record(opts, e)
                    .add("staleness_bound", kStaleBound)
                    .add("episodes", rows)
                    .add("eviction_latency_mean", evict_sum / n)
                    .add("eviction_latency_max", evict_max)
                    .add("rejoin_latency_mean", rejoin_sum / n)
                    .add("rejoin_latency_max", rejoin_max)
                    .add("evictions", sup.evictions())
                    .add("rejoins", sup.rejoins())
                    .add("queries", server.queries())
                    .add("degraded_reads", server.degraded_reads())
                    .add("shard_down_reads", server.shard_down_reads())
                    .add("stale_reads", server.stale_reads())
                    .add("unavailable", server.unavailable())
                    .add("torn_reads", server.torn_reads())
                    .add("stale_bound_violations", stale_bound_violations)
                    .add("partition_drops", counts.partition_drops)
                    .add("frames_corrupted", counts.frames_corrupted)
                    .add("frames_quarantined", counts.frames_quarantined)
                    .add("retransmissions", counts.retransmissions)
                    .add("messages_sent", counts.messages_sent)
                    .add("reconverged", reconverge.reached)
                    .add("reconverge_time", reconverge.time)
                    .add("final_relative_error",
                         reconverge.final_relative_error));

  if (stale_bound_violations != 0) {
    std::cerr << "bench_report: FAIL — " << stale_bound_violations
              << " stale-bound violation(s); the degraded-serving contract "
                 "requires zero\n";
    ok = false;
  }
  if (server.torn_reads() != 0) {
    std::cerr << "bench_report: FAIL — " << server.torn_reads()
              << " torn-epoch read(s)\n";
    ok = false;
  }
  if (counts.corrupt_frames_applied != 0) {
    std::cerr << "bench_report: FAIL — " << counts.corrupt_frames_applied
              << " corrupted frame(s) applied past the checksum\n";
    ok = false;
  }
  if (!reconverge.reached) {
    std::cerr << "bench_report: FAIL — post-recovery run did not reconverge\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

// --- Scale benchmark ---------------------------------------------------------

double timed_seconds(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A link-only update batch over existing pages: always sequentially valid
/// (adds only), always incremental-eligible.
std::vector<graph::LinkUpdate> scale_delta(const graph::WebGraph& g,
                                           std::uint64_t seed,
                                           std::size_t count) {
  util::Rng rng(seed ^ 0x5ca1ab1eULL);
  const auto n = static_cast<std::uint64_t>(g.num_pages());
  std::vector<graph::LinkUpdate> ups;
  ups.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.uniform() < 0.7) {
      ups.push_back(graph::LinkUpdate::add_link(
          g.url(static_cast<graph::PageId>(rng.below(n))),
          g.url(static_cast<graph::PageId>(rng.below(n)))));
    } else {
      ups.push_back(graph::LinkUpdate::add_external(
          g.url(static_cast<graph::PageId>(rng.below(n)))));
    }
  }
  return ups;
}

/// Full structural comparison; on mismatch explains where in `why`.
bool same_graph(const graph::WebGraph& a, const graph::WebGraph& b,
                std::string* why) {
  const auto fail = [&](const std::string& w) {
    if (why != nullptr) *why = w;
    return false;
  };
  if (a.num_pages() != b.num_pages()) return fail("page counts differ");
  if (a.num_sites() != b.num_sites()) return fail("site counts differ");
  if (a.num_links() != b.num_links()) return fail("link counts differ");
  if (a.num_external_links() != b.num_external_links()) {
    return fail("external totals differ");
  }
  for (graph::PageId p = 0; p < a.num_pages(); ++p) {
    if (a.url(p) != b.url(p)) return fail("url differs at page " + std::to_string(p));
    if (a.site_name(a.site(p)) != b.site_name(b.site(p))) {
      return fail("site differs at page " + std::to_string(p));
    }
    if (a.external_out_degree(p) != b.external_out_degree(p)) {
      return fail("external degree differs at page " + std::to_string(p));
    }
    const auto oa = a.out_links(p);
    const auto ob = b.out_links(p);
    if (!std::equal(oa.begin(), oa.end(), ob.begin(), ob.end())) {
      return fail("out row differs at page " + std::to_string(p));
    }
    const auto ia = a.in_links(p);
    const auto ib = b.in_links(p);
    if (!std::equal(ia.begin(), ia.end(), ib.begin(), ib.end())) {
      return fail("in row differs at page " + std::to_string(p));
    }
  }
  return true;
}

struct ScaleRow {
  std::uint64_t pages_target = 0;
  std::size_t pages = 0;
  std::size_t edges = 0;
  std::size_t externals = 0;
  double generate_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  std::uint64_t binary_bytes = 0;
  int sweeps = 0;
  double rank_s = 0.0;
  std::size_t delta_edges = 0;
  double incremental_ms = 0.0;
  double rebuild_ms = 0.0;
  double speedup = 0.0;
};

int run_scale_bench(const Options& opts, const Report& report) {
  auto& pool = util::ThreadPool::shared();
  const std::vector<std::uint64_t> targets =
      opts.scale_rows.empty() ? std::vector<std::uint64_t>{1'000'000, 10'000'000}
                              : opts.scale_rows;
  std::vector<Record> rows;
  bool ok = true;
  for (const std::uint64_t target : targets) {
    ScaleRow row;
    row.pages_target = target;
    const auto cfg = graph::google2002_config(
        static_cast<std::uint32_t>(target), opts.seed);

    // Streamed two-pass ingest: edges are generated chunk by chunk and never
    // buffered whole, so peak memory is the CSR itself plus one chunk.
    graph::WebGraph g;
    row.generate_s = timed_seconds([&] { g = graph::generate_synthetic_web(cfg); });
    row.pages = g.num_pages();
    row.edges = g.num_links();
    row.externals = g.num_external_links();

    // Binary round trip: this is the reload path that makes re-running
    // experiments on the same web cheap.
    const std::string bin = "BENCH_scale_" + std::to_string(target) + ".bin";
    row.save_s = timed_seconds([&] { graph::save_graph_binary_file(g, bin); });
    {
      std::ifstream f(bin, std::ios::binary | std::ios::ate);
      row.binary_bytes = f ? static_cast<std::uint64_t>(f.tellg()) : 0;
    }
    graph::WebGraph loaded;
    row.load_s = timed_seconds([&] { loaded = graph::load_graph_binary_file(bin); });
    std::remove(bin.c_str());
    std::string why;
    if (!same_graph(g, loaded, &why)) {
      std::cerr << "bench_report: FAIL — binary round trip at " << target
                << " pages: " << why << "\n";
      ok = false;
    }

    // Bounded rank sweeps over the loaded graph: end-to-end proof that the
    // reloaded web ranks, plus a per-sweep cost sample at this scale.
    {
      const auto m = rank::LinkMatrix::from_graph(loaded, opts.alpha);
      std::vector<double> x(m.dimension(), 0.0);
      std::vector<double> y(m.dimension());
      const std::vector<double> forcing(m.dimension(), 1.0 - opts.alpha);
      rank::SweepScratch scratch;
      row.sweeps = opts.scale_sweeps;
      row.rank_s = timed_seconds([&] {
        for (int s = 0; s < opts.scale_sweeps; ++s) {
          auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
          if (stats.l1_delta < 0.0) std::abort();  // keep the result live
          std::swap(x, y);
        }
      });
    }

    // Update latency: the same 1k-edge link-only delta through the
    // incremental splice (shared page table, per-row patch) and through the
    // rebuild oracle (re-intern every URL, re-sort every edge).
    const auto ups = scale_delta(loaded, opts.seed, opts.delta_edges);
    row.delta_edges = ups.size();
    graph::GraphUpdateResult delta;
    double best_inc = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      best_inc = std::min(best_inc, timed_seconds([&] {
                            delta = graph::apply_updates_delta(loaded, ups);
                          }));
    }
    row.incremental_ms = best_inc * 1e3;
    if (!delta.incremental) {
      std::cerr << "bench_report: FAIL — link-only delta was not incremental\n";
      ok = false;
    }
    graph::WebGraph rebuilt;
    row.rebuild_ms = timed_seconds([&] {
                       rebuilt = graph::apply_updates_rebuild(loaded, ups);
                     }) *
                     1e3;
    row.speedup = row.rebuild_ms / row.incremental_ms;
    if (!same_graph(delta.graph, rebuilt, &why)) {
      std::cerr << "bench_report: FAIL — splice != rebuild at " << target
                << " pages: " << why << "\n";
      ok = false;
    }
    if (row.pages >= 1'000'000 && row.speedup < 10.0) {
      std::cerr << "bench_report: FAIL — incremental update speedup "
                << row.speedup << "x at " << row.pages
                << " pages; the scale contract requires >= 10x\n";
      ok = false;
    }

    std::cout << "  " << row.pages << " pages, " << row.edges << " edges, "
              << row.externals << " external\n"
              << "    generate " << row.generate_s << " s, save " << row.save_s
              << " s (" << static_cast<double>(row.binary_bytes) / 1e6
              << " MB), load " << row.load_s << " s\n"
              << "    " << row.sweeps << " rank sweeps in " << row.rank_s
              << " s (" << row.rank_s / std::max(row.sweeps, 1) * 1e3
              << " ms/sweep)\n"
              << "    " << row.delta_edges << "-edge delta: incremental "
              << row.incremental_ms << " ms vs rebuild " << row.rebuild_ms
              << " ms (" << row.speedup << "x)\n";
    rows.push_back(Record()
                       .add("pages_target", row.pages_target)
                       .add("pages", row.pages)
                       .add("edges", row.edges)
                       .add("externals", row.externals)
                       .add("generate_s", row.generate_s)
                       .add("save_s", row.save_s)
                       .add("load_s", row.load_s)
                       .add("binary_bytes", row.binary_bytes)
                       .add("rank_sweeps", row.sweeps)
                       .add("rank_s", row.rank_s)
                       .add("delta_edges", row.delta_edges)
                       .add("incremental_ms", row.incremental_ms)
                       .add("rebuild_ms", row.rebuild_ms)
                       .add("update_speedup", row.speedup));
  }

  Record run;
  run.add("label", opts.label)
      .add("graph_seed", opts.seed)
      .add("alpha", opts.alpha)
      .add("pool_threads", pool.size())
      .add("rows", rows);
  report.append(run);
  return ok ? 0 : 1;
}

/// --scale --determinism-check: the small bitwise gates of DESIGN.md §14,
/// wired into tier-bench-smoke. Everything here must be exact, not close.
int run_scale_determinism_check(Options opts) {
  if (opts.pages == 50000) opts.pages = 2000;  // smoke-sized by default
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::cerr << "bench_report: scale determinism FAIL — " << what << "\n";
      ok = false;
    }
  };
  // same_graph() runs before the message is built, so it names the row.
  const auto expect_same = [&](const graph::WebGraph& a, const graph::WebGraph& b,
                               const std::string& what) {
    std::string why;
    if (!same_graph(a, b, &why)) expect(false, what + ": " + why);
  };
  // Every gate runs on one crawl; gate 4 ranks it over 4 rankers.
  util::ThreadPool pool(2);
  const Experiment e = make_experiment(opts.pages, opts.seed, 4, opts.alpha, pool);
  const graph::WebGraph& g = e.graph;

  // Gate 1: the generator's streamed build == a buffered build() of the same
  // pages, its links in shuffled order and its external counts, bitwise.
  {
    graph::GraphBuilder b;
    std::vector<std::pair<graph::PageId, graph::PageId>> links;
    for (graph::PageId p = 0; p < g.num_pages(); ++p) {
      b.add_page(g.url(p), g.site_name(g.site(p)));
      b.add_external_link(p, g.external_out_degree(p));
      for (const graph::PageId v : g.out_links(p)) links.emplace_back(p, v);
    }
    util::Rng rng(opts.seed ^ 0x5b0ff1eULL);
    for (std::size_t i = links.size(); i > 1; --i) {
      std::swap(links[i - 1], links[rng.below(i)]);
    }
    for (const auto& [u, v] : links) b.add_link(u, v);
    expect_same(std::move(b).build(), g, "buffered build != streamed generator");
  }

  // Gate 2: binary round-trip identity.
  {
    std::stringstream buf;
    graph::save_graph_binary(g, buf);
    const auto loaded = graph::load_graph_binary(buf);
    expect_same(g, loaded, "binary round trip");
  }

  // Gate 3: incremental splice == rebuild oracle on a link-only delta.
  const auto ups = scale_delta(g, opts.seed, 200);
  const auto delta = graph::apply_updates_delta(g, ups);
  expect(delta.incremental, "link-only delta not incremental");
  {
    const auto rebuilt = graph::apply_updates_rebuild(g, ups);
    expect_same(delta.graph, rebuilt, "splice != rebuild");
  }

  // Gate 4: incremental warm start == rebuild-then-warm-start, bitwise (the
  // engine half of the §14 contract).
  {
    engine::EngineOptions eo;
    eo.algorithm = engine::Algorithm::kDPR1;
    eo.alpha = opts.alpha;
    eo.seed = opts.seed ^ 0x5ca1edEULL;
    engine::DistributedRanking sim0(g, e.assignment, e.k, eo, pool);
    sim0.set_reference(e.reference);
    (void)sim0.run(30.0, 30.0);
    const auto ranks = sim0.global_ranks();
    auto carry = sim0.export_worklist_carry();
    std::size_t valid = 0;
    for (const auto& c : carry.groups) valid += c.valid ? 1 : 0;
    expect(valid > 0, "no group exported a live worklist frontier");

    const auto reference =
        engine::open_system_reference(delta.graph, opts.alpha, pool);
    engine::DistributedRanking inc(delta.graph, e.assignment, e.k, eo, pool);
    inc.set_reference(reference);
    inc.warm_start_incremental(ranks, std::move(carry), delta.in_changed,
                               delta.degree_changed);
    (void)inc.run(40.0, 40.0);
    engine::DistributedRanking reb(delta.graph, e.assignment, e.k, eo, pool);
    reb.set_reference(reference);
    reb.warm_start(ranks);
    (void)reb.run(40.0, 40.0);
    const auto ri = inc.global_ranks();
    const auto rr = reb.global_ranks();
    std::size_t diffs = 0;
    for (std::size_t p = 0; p < ri.size(); ++p) diffs += ri[p] != rr[p] ? 1 : 0;
    expect(diffs == 0, "incremental vs rebuild warm start: " +
                           std::to_string(diffs) + " rank(s) differ");
  }

  if (ok) {
    std::cout << "scale determinism check passed: streamed ingest, binary "
                 "round trip, splice, and incremental warm start all "
                 "bitwise-exact at "
              << opts.pages << " pages\n";
  }
  return ok ? 0 : 1;
}

void print_usage(std::ostream& os) {
  os << "usage: bench_report --reliability [--pages N] [--k K] [--seed S] "
        "[--error-threshold E] [--max-time T] [--label L] [--out FILE]\n"
        "       bench_report --obs [--pages N] [--k K] [--seed S] [--reps R] "
        "[--min-rep-seconds T] [--label L] [--out FILE]\n"
        "       bench_report --serve [--pages N] [--k K] [--seed S] "
        "[--clients C] [--duration T] [--label L] [--out FILE]\n"
        "       bench_report --serve --determinism-check\n"
        "       bench_report --recovery [--pages N] [--k K] [--seed S] "
        "[--episodes E] [--label L] [--out FILE]\n"
        "       bench_report --scale [--scale-rows N,M] [--sweeps S] "
        "[--delta-edges D] [--seed S] [--label L] [--out FILE]\n"
        "       bench_report --scale --determinism-check [--pages N]\n"
        "Kernel throughput: bench/micro_kernels --benchmark_filter=...\n";
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error(std::string("bench_report: ") + flag +
                                 " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--pages") {
      opts.pages = static_cast<std::uint32_t>(std::stoul(need_value("--pages")));
    } else if (arg == "--seed") {
      opts.seed = std::stoull(need_value("--seed"));
    } else if (arg == "--alpha") {
      opts.alpha = std::stod(need_value("--alpha"));
    } else if (arg == "--reps") {
      opts.repetitions = std::stoi(need_value("--reps"));
    } else if (arg == "--min-rep-seconds") {
      opts.min_rep_seconds = std::stod(need_value("--min-rep-seconds"));
    } else if (arg == "--label") {
      opts.label = need_value("--label");
    } else if (arg == "--out") {
      opts.out = need_value("--out");
    } else if (arg == "--reliability") {
      opts.reliability = true;
    } else if (arg == "--obs") {
      opts.obs = true;
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--recovery") {
      opts.recovery = true;
    } else if (arg == "--scale") {
      opts.scale = true;
    } else if (arg == "--scale-rows") {
      opts.scale_rows.clear();
      std::stringstream ss(need_value("--scale-rows"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) opts.scale_rows.push_back(std::stoull(tok));
      }
      if (opts.scale_rows.empty()) {
        throw std::runtime_error("bench_report: --scale-rows needs N[,M...]");
      }
    } else if (arg == "--sweeps") {
      opts.scale_sweeps = std::stoi(need_value("--sweeps"));
    } else if (arg == "--delta-edges") {
      opts.delta_edges = std::stoul(need_value("--delta-edges"));
    } else if (arg == "--episodes") {
      opts.episodes =
          static_cast<std::uint32_t>(std::stoul(need_value("--episodes")));
    } else if (arg == "--determinism-check") {
      opts.determinism_check = true;
    } else if (arg == "--clients") {
      opts.clients =
          static_cast<std::uint32_t>(std::stoul(need_value("--clients")));
    } else if (arg == "--duration") {
      opts.serve_duration = std::stod(need_value("--duration"));
    } else if (arg == "--k") {
      opts.k = static_cast<std::uint32_t>(std::stoul(need_value("--k")));
    } else if (arg == "--error-threshold") {
      opts.error_threshold = std::stod(need_value("--error-threshold"));
    } else if (arg == "--max-time") {
      opts.max_time = std::stod(need_value("--max-time"));
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else {
      throw std::runtime_error("bench_report: unknown flag " + arg);
    }
  }
  const int modes = static_cast<int>(opts.reliability) + static_cast<int>(opts.obs) +
                    static_cast<int>(opts.serve) + static_cast<int>(opts.recovery) +
                    static_cast<int>(opts.scale);
  if (modes == 0) {
    print_usage(std::cerr);
    std::exit(1);
  }
  if (modes > 1) {
    throw std::runtime_error(
        "bench_report: --reliability, --obs, --serve, --recovery, and "
        "--scale are exclusive");
  }
  if (opts.determinism_check && !opts.serve && !opts.scale) {
    throw std::runtime_error(
        "bench_report: --determinism-check requires --serve or --scale");
  }
  if (opts.out.empty()) {
    opts.out = opts.reliability ? "BENCH_reliability.json"
               : opts.obs      ? "BENCH_obs.json"
               : opts.serve    ? "BENCH_serve.json"
               : opts.recovery ? "BENCH_recovery.json"
                               : "BENCH_scale.json";
  }
  if (opts.reliability && opts.pages == 50000) {
    opts.pages = 2000;  // convergence sweeps run a full engine: keep it small
  }
  if (opts.recovery && opts.pages == 50000) {
    opts.pages = 1000;  // many full-engine episodes: keep each one quick
  }
  if (opts.recovery && opts.k < 3) {
    throw std::runtime_error(
        "bench_report: --recovery needs k >= 3 (an eviction quorum)");
  }
  // --serve keeps the full 50k-page default: the publish-overhead phase
  // must be measured at the scale where sweeps carry their real memory
  // traffic (run_serve_bench clamps its closed-loop phase separately).
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse_args(argc, argv);
    if (opts.determinism_check) {
      return opts.serve ? run_serve_determinism_check(opts)
                        : run_scale_determinism_check(opts);
    }
    // Each Report checks --out before its mode measures anything.
    if (opts.reliability) {
      return run_reliability_bench(
          opts, Report(opts, "p2prank-reliability-bench-v1"));
    }
    if (opts.obs) return run_obs_bench(opts, Report(opts, "p2prank-obs-bench-v1"));
    if (opts.serve) {
      return run_serve_bench(opts, Report(opts, "p2prank-serve-bench-v1"));
    }
    if (opts.recovery) {
      return run_recovery_bench(opts, Report(opts, "p2prank-recovery-bench-v1"));
    }
    return run_scale_bench(opts, Report(opts, "p2prank-scale-bench-v1"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
