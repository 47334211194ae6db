// Deterministic closed-loop load generator for the rank serving layer
// (DESIGN.md §12). Simulated clients live in virtual time on their own
// sim::EventQueue: each client thinks (exponential), issues a point-rank or
// top-K query against a SnapshotStore through a RankServer, waits for one
// of `servers` service slots (FIFO), is serviced (exponential; mean 0.002
// for a point query, 0.004 + 0.0002·K for a top-K one), and loops.
// That makes throughput self-limiting — the closed-loop property — and the
// whole run a pure function of (options, store contents at each acquire).
//
// Determinism: one seeded util::Rng drives everything, consumed in event
// order, which the queue's FIFO tie-break fixes; same seed ⇒ byte-identical
// query stream (stream_log) and identical latency histograms. Queries hit
// the real store (the snapshots the engine published), so interleaving the
// generator with a sweeping engine exercises the genuine reader path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"
#include "sim/event_queue.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace p2prank::obs {
class MetricsRegistry;
class Tracer;
}  // namespace p2prank::obs

namespace p2prank::serve {

/// Zipf(s) sampler over keys [0, n): P(i) ∝ (i+1)^-s, drawn by binary
/// search over the precomputed CDF. Deterministic given the rng stream.
class ZipfSampler {
 public:
  /// Requires n > 0 and exponent >= 0 (0 = uniform).
  ZipfSampler(std::size_t n, double exponent);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const;

  [[nodiscard]] std::size_t n() const noexcept { return cdf_.size(); }
  /// Exact P(key == i) — the reference the frequency tests compare against.
  [[nodiscard]] double probability(std::size_t i) const;

 private:
  std::vector<double> cdf_;  // inclusive prefix sums of the weights
};

struct LoadGenOptions {
  std::uint32_t clients = 64;
  /// Service slots: at most this many queries in service at once; the rest
  /// wait FIFO (the closed-loop queue the latency tail comes from).
  std::uint32_t servers = 4;
  /// Mean think time between a client's completion and its next issue.
  double think_mean = 1.0;
  /// Probability a query is top-K (rest are point-rank).
  double topk_fraction = 0.2;
  /// K of every top-K query.
  std::size_t top_k = 10;
  /// Zipf exponent of the point-query key distribution.
  double zipf_exponent = 1.1;
  std::uint64_t seed = 1;
  /// Record the full per-query stream log (byte-comparable across runs);
  /// off by default — 10k-client benches do not want the allocation.
  bool record_stream = false;
};

/// End-of-run summary. qps / quantiles are over completed queries in
/// virtual time; checksum folds every served result (epoch + payload) so
/// two runs that byte-agree here read identical snapshots.
struct LoadGenReport {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t point_queries = 0;
  std::uint64_t topk_queries = 0;
  std::uint64_t torn_reads = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t max_queue_depth = 0;
  double duration = 0.0;
  double qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max_latency = 0.0;
  std::uint64_t checksum = 0;
};

/// Latency histogram registered under obs::names::kServeLatency: fixed
/// bounds so every run's histogram is comparable byte-for-byte.
inline constexpr double kServeLatencyLo = 0.0;
inline constexpr double kServeLatencyHi = 2.0;
inline constexpr std::size_t kServeLatencyBins = 200;

class LoadGenerator {
 public:
  /// `num_pages` bounds the key space (must match the graph the engine
  /// serves). `metrics` / `tracer` are optional observers; both must
  /// outlive the generator. Throws std::invalid_argument on bad options.
  LoadGenerator(const SnapshotStore& store, std::size_t num_pages,
                const LoadGenOptions& opts,
                obs::MetricsRegistry* metrics = nullptr,
                obs::Tracer* tracer = nullptr);

  /// Advance the client world to virtual time `t` (monotone across calls).
  /// Interleave with the engine's own advance to co-simulate load + sweeps.
  void run_until(double t);

  [[nodiscard]] const RankServer& server() const noexcept { return server_; }
  [[nodiscard]] double now() const noexcept { return queue_.now(); }

  /// Per-query log, one line per issue (only when record_stream): byte-
  /// identical across runs of the same seed against identical snapshots.
  [[nodiscard]] const std::string& stream_log() const noexcept {
    return stream_log_;
  }

  [[nodiscard]] LoadGenReport report() const;

 private:
  void schedule_think(std::uint32_t client);
  void issue(std::uint32_t client);
  void start_service(std::uint32_t client, double service);
  void complete(std::uint32_t client);

  const SnapshotStore& store_;
  RankServer server_;
  LoadGenOptions opts_;
  ZipfSampler zipf_;
  sim::EventQueue queue_;
  util::Rng rng_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;

  struct Waiting {
    std::uint32_t client;
    double service;
  };
  std::uint32_t busy_ = 0;
  std::vector<Waiting> wait_queue_;  // FIFO via head index
  std::size_t wait_head_ = 0;
  std::uint64_t max_queue_depth_ = 0;

  std::vector<double> issue_time_;  // per client, of the in-flight query
  std::vector<double> latencies_;
  util::LinearHistogram latency_hist_;
  std::string stream_log_;

  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t checksum_ = 0;
};

}  // namespace p2prank::serve
