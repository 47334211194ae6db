#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace p2prank::serve {

// ---------------------------------------------------------------------------
// ZipfSampler

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (!(exponent >= 0.0) || !std::isfinite(exponent)) {
    throw std::invalid_argument("ZipfSampler: exponent must be finite, >= 0");
  }
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -exponent);
    cdf_[i] = total;
  }
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  const double u = rng.uniform() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;  // u == total edge
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::size_t i) const {
  const double lo = i == 0 ? 0.0 : cdf_[i - 1];
  return (cdf_[i] - lo) / cdf_.back();
}

// ---------------------------------------------------------------------------
// LoadGenerator

namespace {

/// Mean service time of a point-rank query.
constexpr double kServicePoint = 0.002;
/// Mean service time of a top-K query: base + per_entry · k.
constexpr double kServiceTopkBase = 0.004;
constexpr double kServiceTopkPerEntry = 0.0002;

void validate(const LoadGenOptions& o, std::size_t num_pages) {
  const auto positive = [](double v) { return v > 0.0 && std::isfinite(v); };
  if (num_pages == 0) {
    throw std::invalid_argument("LoadGenerator: num_pages must be > 0");
  }
  if (o.clients == 0) {
    throw std::invalid_argument("LoadGenOptions.clients: must be > 0");
  }
  if (o.servers == 0) {
    throw std::invalid_argument("LoadGenOptions.servers: must be > 0");
  }
  if (!positive(o.think_mean)) {
    throw std::invalid_argument("LoadGenOptions.think_mean: must be > 0");
  }
  if (!(o.topk_fraction >= 0.0 && o.topk_fraction <= 1.0)) {
    throw std::invalid_argument("LoadGenOptions.topk_fraction: must be in [0,1]");
  }
}

/// Fold one 64-bit word into a running checksum (order-sensitive).
constexpr std::uint64_t fold(std::uint64_t sum, std::uint64_t word) noexcept {
  return util::mix64(sum ^ word);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

LoadGenerator::LoadGenerator(const SnapshotStore& store, std::size_t num_pages,
                             const LoadGenOptions& opts,
                             obs::MetricsRegistry* metrics,
                             obs::Tracer* tracer)
    : store_(store),
      server_(store),
      opts_(opts),
      zipf_((validate(opts, num_pages), num_pages), opts.zipf_exponent),
      rng_(opts.seed),
      metrics_(metrics),
      tracer_(tracer),
      issue_time_(opts.clients, 0.0),
      latency_hist_(kServeLatencyLo, kServeLatencyHi, kServeLatencyBins) {
  latencies_.reserve(1024);
  // Clients wake for the first time after one think period each; the rng
  // draws happen in client order here and in event order afterwards, both
  // deterministic.
  for (std::uint32_t c = 0; c < opts_.clients; ++c) schedule_think(c);
}

void LoadGenerator::schedule_think(std::uint32_t client) {
  const double think = rng_.exponential(opts_.think_mean);
  queue_.schedule_in(think, [this, client] { issue(client); });
}

void LoadGenerator::issue(std::uint32_t client) {
  issue_time_[client] = queue_.now();
  ++issued_;

  const bool topk = rng_.chance(opts_.topk_fraction);
  std::uint64_t key = 0;
  std::uint64_t epoch = 0;
  bool served = false;
  bool stale = false;
  double service_mean = 0.0;
  if (topk) {
    const TopKResult r = server_.top_k(opts_.top_k);
    served = r.served;
    stale = r.stale;
    epoch = r.epoch;
    key = opts_.top_k;
    checksum_ = fold(checksum_, 0x10u);
    checksum_ = fold(checksum_, epoch);
    for (const TopKEntry& e : r.entries) {
      checksum_ = fold(checksum_, e.page);
      checksum_ = fold(checksum_, double_bits(e.rank));
    }
    service_mean =
        kServiceTopkBase + kServiceTopkPerEntry * static_cast<double>(opts_.top_k);
  } else {
    key = zipf_.sample(rng_);
    const PointResult r = server_.rank(static_cast<std::uint32_t>(key));
    served = r.served;
    stale = r.stale;
    epoch = r.epoch;
    checksum_ = fold(checksum_, 0x20u);
    checksum_ = fold(checksum_, epoch);
    checksum_ = fold(checksum_, double_bits(r.rank));
    service_mean = kServicePoint;
  }
  checksum_ = fold(checksum_, key);

  if (opts_.record_stream) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "t=%.17g client=%u kind=%s key=%llu epoch=%llu served=%d "
                  "stale=%d\n",
                  queue_.now(), client, topk ? "topk" : "point",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(epoch), served ? 1 : 0,
                  stale ? 1 : 0);
    stream_log_ += line;
  }

  const double service = rng_.exponential(service_mean);
  if (busy_ < opts_.servers) {
    start_service(client, service);
  } else {
    wait_queue_.push_back({client, service});
    const std::uint64_t depth =
        static_cast<std::uint64_t>(wait_queue_.size() - wait_head_);
    max_queue_depth_ = std::max(max_queue_depth_, depth);
  }
}

void LoadGenerator::start_service(std::uint32_t client, double service) {
  ++busy_;
  queue_.schedule_in(service, [this, client] { complete(client); });
}

void LoadGenerator::complete(std::uint32_t client) {
  const double latency = queue_.now() - issue_time_[client];
  latencies_.push_back(latency);
  latency_hist_.add(latency);
  ++completed_;
  if (metrics_ != nullptr) {
    metrics_
        ->linear_histogram(obs::names::kServeLatency, kServeLatencyLo,
                           kServeLatencyHi, kServeLatencyBins)
        .add(latency);
  }
  if (tracer_ != nullptr) {
    tracer_->complete(obs::names::kTraceServeQuery, issue_time_[client],
                      latency, client, {}, latency);
  }

  --busy_;
  if (wait_head_ < wait_queue_.size()) {
    const Waiting w = wait_queue_[wait_head_++];
    if (wait_head_ == wait_queue_.size()) {
      wait_queue_.clear();
      wait_head_ = 0;
    }
    start_service(w.client, w.service);
  }
  schedule_think(client);
}

void LoadGenerator::run_until(double t) { queue_.run_until(t); }

LoadGenReport LoadGenerator::report() const {
  LoadGenReport r;
  r.issued = issued_;
  r.completed = completed_;
  r.point_queries = server_.point_queries();
  r.topk_queries = server_.topk_queries();
  r.torn_reads = server_.torn_reads();
  r.stale_reads = server_.stale_reads();
  r.unavailable = server_.unavailable();
  r.max_queue_depth = max_queue_depth_;
  r.duration = queue_.now();
  r.qps = r.duration > 0.0 ? static_cast<double>(completed_) / r.duration : 0.0;
  r.p50 = util::quantile(latencies_, 0.50);
  r.p99 = util::quantile(latencies_, 0.99);
  r.max_latency =
      latencies_.empty() ? 0.0 : *std::max_element(latencies_.begin(),
                                                   latencies_.end());
  r.checksum = checksum_;
  return r;
}

}  // namespace p2prank::serve
