#include "obs/metrics.hpp"

#include "obs/metric_names.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

namespace p2prank::obs {

// Pin the wire-format version in the file that implements the writer: an
// edit to the JSON layout below must come with a schema bump here.
static_assert(kMetricsSchema == "p2prank-metrics-v1");

namespace {

/// Map::operator[] needs a std::string key; centralize the conversion.
template <typename T, typename... Args>
T& get_or_create(std::map<std::string, T, std::less<>>& m, std::string_view name,
                 Args&&... args) {
  if (const auto it = m.find(name); it != m.end()) return it->second;
  return m.emplace(std::string(name), T(std::forward<Args>(args)...)).first->second;
}

[[nodiscard]] std::string indexed(std::string_view name, std::uint32_t index) {
  std::string key(name);
  key += '.';
  key += std::to_string(index);
  return key;
}

void write_log2(std::ostream& out, const util::Log2Histogram& h) {
  out << "{\"kind\": \"log2\", \"total\": " << h.total() << ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << '[' << util::Log2Histogram::bucket_floor(i) << ", "
        << util::Log2Histogram::bucket_ceil(i) << ", " << h.bucket(i) << ']';
  }
  out << "]}";
}

void write_linear(std::ostream& out, double lo, double hi, std::size_t bins,
                  const util::LinearHistogram& h) {
  out << "{\"kind\": \"linear\", \"lo\": " << util::json_double(lo)
      << ", \"hi\": " << util::json_double(hi) << ", \"bins\": " << bins
      << ", \"total\": " << h.total() << ", \"nan\": " << h.nan_count()
      << ", \"counts\": [";
  bool first = true;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.count(b) == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << '[' << b << ", " << h.count(b) << ']';
  }
  out << "]}";
}

}  // namespace

std::uint64_t& MetricsRegistry::counter(std::string_view name) {
  return get_or_create(counters_, name);
}

std::uint64_t& MetricsRegistry::counter(std::string_view name, std::uint32_t index) {
  return get_or_create(counters_, indexed(name, index));
}

std::uint64_t& MetricsRegistry::counter_unstable(std::string_view name) {
  return get_or_create(unstable_counters_, name);
}

double& MetricsRegistry::gauge(std::string_view name) {
  return get_or_create(gauges_, name);
}

double& MetricsRegistry::gauge(std::string_view name, std::uint32_t index) {
  return get_or_create(gauges_, indexed(name, index));
}

util::Log2Histogram& MetricsRegistry::log2_histogram(std::string_view name) {
  return get_or_create(log2_, name);
}

util::LinearHistogram& MetricsRegistry::linear_histogram(std::string_view name,
                                                         double lo, double hi,
                                                         std::size_t bins) {
  if (const auto it = linear_.find(name); it != linear_.end()) {
    LinearSpec& spec = it->second;
    if (spec.lo != lo || spec.hi != hi || spec.bins != bins) {
      throw std::invalid_argument("MetricsRegistry: linear histogram '" +
                                  std::string(name) +
                                  "' re-registered with different bounds");
    }
    return spec.hist;
  }
  auto [it, inserted] = linear_.emplace(
      std::string(name), LinearSpec{lo, hi, bins, util::LinearHistogram(lo, hi, bins)});
  (void)inserted;
  return it->second.hist;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::write_json(std::ostream& out, bool include_unstable) const {
  out << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << util::json_string(name) << ": " << value;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << util::json_string(name) << ": " << util::json_double(value);
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : log2_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << util::json_string(name) << ": ";
    write_log2(out, h);
  }
  for (const auto& [name, spec] : linear_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << util::json_string(name) << ": ";
    write_linear(out, spec.lo, spec.hi, spec.bins, spec.hist);
  }
  out << (first ? "}" : "\n  }");
  if (include_unstable) {
    out << ",\n  \"unstable_counters\": {";
    first = true;
    for (const auto& [name, value] : unstable_counters_) {
      out << (first ? "\n    " : ",\n    ");
      first = false;
      out << util::json_string(name) << ": " << value;
    }
    out << (first ? "}" : "\n  }");
  }
  out << "\n}\n";
}

std::string MetricsRegistry::snapshot(bool include_unstable) const {
  std::ostringstream out;
  write_json(out, include_unstable);
  return out.str();
}

void export_pool_metrics(const util::ThreadPool& pool, MetricsRegistry& m) {
  export_pool_metrics(pool.stats(), m);
}

void export_pool_metrics(const util::ThreadPool::Stats& s, MetricsRegistry& m) {
  m.counter(names::kPoolParallelForCalls) = s.parallel_for_calls;
  m.counter(names::kPoolGrainedCalls) = s.grained_calls;
  m.counter(names::kPoolIndices) = s.indices;
  m.counter(names::kPoolFixedGrains) = s.fixed_grains;
  m.counter_unstable(names::kPoolDispatches) = s.dispatches;
  m.counter_unstable(names::kPoolWorkerClaims) = s.worker_claims;
}

}  // namespace p2prank::obs
