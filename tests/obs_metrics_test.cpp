// Observability layer (src/obs/, DESIGN.md §11): MetricsRegistry and Tracer
// units, the determinism contract (bitwise-identical snapshots across pool
// sizes and across repeated seeded chaos runs), Chrome trace schema, and
// the retransmit cost-accounting regression — a dead ack channel forces
// retransmissions but must leave the §4.5 fresh-record counters untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::obs {
namespace {

// --- MetricsRegistry units ----------------------------------------------

TEST(MetricsRegistry, CountersAndGaugesGetOrCreate) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter_value("a.b"), 0u);
  m.counter("a.b") += 3;
  m.counter("a.b") += 2;
  EXPECT_EQ(m.counter_value("a.b"), 5u);
  m.counter("family", 7) = 9;
  EXPECT_EQ(m.counter_value("family.7"), 9u);
  m.gauge("g") = 1.5;
  EXPECT_DOUBLE_EQ(m.gauge_value("g"), 1.5);
  EXPECT_DOUBLE_EQ(m.gauge_value("missing"), 0.0);
}

TEST(MetricsRegistry, ReferencesAreStableAcrossInsertions) {
  MetricsRegistry m;
  std::uint64_t* cell = &m.counter("hot.path");
  for (int i = 0; i < 100; ++i) m.counter("filler", static_cast<std::uint32_t>(i));
  *cell = 42;  // must still point at the live node (std::map stability)
  EXPECT_EQ(m.counter_value("hot.path"), 42u);
}

TEST(MetricsRegistry, SnapshotKeysAreSorted) {
  MetricsRegistry m;
  m.counter("zeta") = 1;
  m.counter("alpha") = 2;
  m.counter("mid") = 3;
  const std::string snap = m.snapshot();
  EXPECT_LT(snap.find("\"alpha\""), snap.find("\"mid\""));
  EXPECT_LT(snap.find("\"mid\""), snap.find("\"zeta\""));
  EXPECT_NE(snap.find(kMetricsSchema), std::string::npos);
}

TEST(MetricsRegistry, UnstableCountersExcludedByDefault) {
  MetricsRegistry m;
  m.counter("stable") = 1;
  m.counter_unstable("racy") = 2;
  const std::string def = m.snapshot();
  EXPECT_EQ(def.find("racy"), std::string::npos);
  const std::string full = m.snapshot(/*include_unstable=*/true);
  EXPECT_NE(full.find("racy"), std::string::npos);
  EXPECT_NE(full.find("unstable_counters"), std::string::npos);
}

TEST(MetricsRegistry, LinearHistogramBoundsMismatchThrows) {
  MetricsRegistry m;
  m.linear_histogram("h", 0.0, 1.0, 10).add(0.5);
  EXPECT_NO_THROW(m.linear_histogram("h", 0.0, 1.0, 10));
  EXPECT_THROW(m.linear_histogram("h", 0.0, 2.0, 10), std::invalid_argument);
  EXPECT_THROW(m.linear_histogram("h", 0.0, 1.0, 20), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramsAppearInSnapshot) {
  MetricsRegistry m;
  m.log2_histogram("sizes").add(5);  // bucket [4, 7]
  m.linear_histogram("resid", -2.0, 2.0, 4).add(std::numeric_limits<double>::quiet_NaN());
  m.linear_histogram("resid", -2.0, 2.0, 4).add(0.5);
  const std::string snap = m.snapshot();
  EXPECT_NE(snap.find("\"kind\": \"log2\""), std::string::npos);
  EXPECT_NE(snap.find("[4, 7, 1]"), std::string::npos);
  EXPECT_NE(snap.find("\"kind\": \"linear\""), std::string::npos);
  EXPECT_NE(snap.find("\"nan\": 1"), std::string::npos);
}

// --- Tracer units -------------------------------------------------------

TEST(Tracer, EventsAndDropCap) {
  Tracer t(/*max_events=*/2);
  t.instant("a", 1.0);
  t.complete("b", 1.0, 0.5, 3, "detail", 7.0);
  t.instant("c", 2.0);  // over cap: dropped, not resized
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
}

TEST(Tracer, ChromeJsonSchema) {
  Tracer t;
  t.instant("engine.step", 1.25, 2, "", 0.5);
  t.complete("engine.msg_flight", 1.25, 0.75, 4, "x\"y\\z", 12.0);
  std::ostringstream out;
  t.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find(kTraceSchema), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);   // instant
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);   // complete
  EXPECT_NE(json.find("\"ts\": 1250000"), std::string::npos);  // µs scale
  EXPECT_NE(json.find("\"dur\": 750000"), std::string::npos);
  EXPECT_NE(json.find("x\\\"y\\\\z"), std::string::npos);  // detail escaped
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

// --- Determinism contract ----------------------------------------------

/// One instrumented engine run on its own pool; returns the stable
/// snapshot (pool stats exported as this run's interval).
std::string engine_snapshot(std::size_t pool_threads, std::uint64_t trace_cap,
                            std::uint64_t* trace_events_out = nullptr) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(3000, 11));
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % 6;
  util::ThreadPool pool(pool_threads);
  MetricsRegistry metrics;
  Tracer tracer(trace_cap);
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.delivery_probability = 0.9;
  eo.reliable = true;
  eo.seed = 77;
  eo.metrics = &metrics;
  eo.tracer = &tracer;
  engine::DistributedRanking sim(g, assignment, 6, eo, pool);
  sim.set_reference(engine::open_system_reference(g, eo.alpha, pool));
  (void)sim.run(30.0);
  export_pool_metrics(pool, metrics);
  if (trace_events_out != nullptr) *trace_events_out = tracer.size();
  return metrics.snapshot();
}

TEST(ObsDeterminism, SnapshotBitwiseIdenticalAcrossPoolSizes) {
  std::uint64_t events1 = 0;
  std::uint64_t events2 = 0;
  std::uint64_t events8 = 0;
  const std::string snap1 = engine_snapshot(1, 1u << 20, &events1);
  const std::string snap2 = engine_snapshot(2, 1u << 20, &events2);
  const std::string snap8 = engine_snapshot(8, 1u << 20, &events8);
  EXPECT_EQ(snap1, snap2);
  EXPECT_EQ(snap1, snap8);
  EXPECT_EQ(events1, events2);
  EXPECT_EQ(events1, events8);
  // Sanity: the run actually produced instrumentation.
  EXPECT_NE(snap1.find(names::kEngineOuterSteps), std::string::npos);
  EXPECT_NE(snap1.find(names::kEngineStepResidualLog10), std::string::npos);
  EXPECT_NE(snap1.find(names::kPoolIndices), std::string::npos);
}

TEST(ObsDeterminism, RepeatedSeededChaosRunsSnapshotIdentically) {
  util::ThreadPool pool(4);
  const check::Scenario scenario = check::Scenario::from_seed(8);  // churn + rexmit
  const auto run_once = [&] {
    MetricsRegistry metrics;
    Tracer tracer;
    check::RunnerOptions ropts;
    ropts.metrics = &metrics;
    ropts.tracer = &tracer;
    check::ScenarioRunner runner(pool, ropts);
    const check::ScenarioResult result = runner.run(scenario);
    EXPECT_TRUE(result.ok()) << result.summary();
    // No pool export: the pool spans both runs, so its cumulative tallies
    // would differ. The engine/check counters are the comparison subject.
    return std::pair{metrics.snapshot(), tracer.size()};
  };
  const auto [snap_a, events_a] = run_once();
  const auto [snap_b, events_b] = run_once();
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_NE(snap_a.find(names::kCheckSamples), std::string::npos);
  EXPECT_NE(snap_a.find(names::kCheckOpsApplied), std::string::npos);
}

TEST(ObsDeterminism, AttachingSinksDoesNotChangeTheRun) {
  // Pure observation: the instrumented engine must produce the same
  // counters/ranks as a bare one (sinks never touch RNG or event order).
  const auto g = graph::generate_synthetic_web(graph::google2002_config(1200, 5));
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % 4;
  util::ThreadPool pool(2);
  const auto run = [&](MetricsRegistry* m, Tracer* t) {
    engine::EngineOptions eo;
    eo.delivery_probability = 0.8;
    eo.reliable = true;
    eo.seed = 123;
    eo.metrics = m;
    eo.tracer = t;
    engine::DistributedRanking sim(g, assignment, 4, eo, pool);
    sim.set_reference(engine::open_system_reference(g, eo.alpha, pool));
    (void)sim.run(25.0);
    sim.leave_group(1, 2);  // a handoff is an export boundary, like a run's end
    return std::pair{sim.counters(), sim.global_ranks()};
  };
  MetricsRegistry metrics;
  Tracer tracer;
  const auto bare = run(nullptr, nullptr);
  const auto instrumented = run(&metrics, &tracer);
  EXPECT_EQ(bare, instrumented);
  // And the registry mirrors the engine's own counters exactly.
  for (const engine::CounterField& f : engine::kCounterFields) {
    if (f.metric.empty()) continue;
    EXPECT_EQ(metrics.counter_value(f.metric), instrumented.first.*f.field) << f.metric;
  }
}

// --- Retransmit cost-accounting regression ------------------------------

/// Fixed-duration reliable run with a perfect data channel and the given
/// ack channel. Data loss and ack loss draw from separate seeded streams,
/// so the fresh slice flow is identical whatever the ack channel does —
/// every retransmission a dead ack channel forces is a pure duplicate.
/// Returns the counters and the per-group fresh records.
std::pair<engine::EngineCounters, std::vector<std::uint64_t>> run_with_ack_probability(
    double ack_p, MetricsRegistry* metrics) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(1000, 9));
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % 4;
  util::ThreadPool pool(2);
  engine::EngineOptions eo;
  eo.delivery_probability = 1.0;
  eo.reliable = true;
  eo.seed = 31;
  eo.metrics = metrics;
  engine::DistributedRanking sim(g, assignment, 4, eo, pool);
  sim.set_ack_delivery_probability(ack_p);
  sim.set_reference(engine::open_system_reference(g, eo.alpha, pool));
  (void)sim.run(40.0);
  const auto per_group = sim.records_sent_per_group();
  return {sim.counters(), {per_group.begin(), per_group.end()}};
}

TEST(RetransmitAccounting, DeadAckChannelDoesNotInflateFreshRecordCounters) {
  MetricsRegistry metrics;
  const auto [clean, clean_per_group] = run_with_ack_probability(1.0, nullptr);
  const auto [lossy, lossy_per_group] = run_with_ack_probability(0.0, &metrics);

  // The forcing worked: no retransmissions with perfect acks, plenty with
  // none — and with a perfect data channel every retransmit is a duplicate.
  EXPECT_EQ(clean.retransmissions, 0u);
  EXPECT_GT(lossy.retransmissions, 0u);
  EXPECT_GT(lossy.retransmit_records, 0u);
  EXPECT_EQ(lossy.duplicates_rejected, lossy.retransmissions);

  // The regression (§4.5): W prices logical records, not channel attempts.
  // Retransmissions add messages but must not move records_sent/record_hops
  // — before the fix these were inflated by every re-shipped payload.
  EXPECT_EQ(lossy.records_sent, clean.records_sent);
  EXPECT_EQ(lossy.record_hops, clean.record_hops);
  EXPECT_EQ(lossy_per_group, clean_per_group);
  EXPECT_EQ(lossy.messages_sent, clean.messages_sent + lossy.retransmissions);

  // Metrics mirror the split: fresh records under engine.*, re-shipped
  // payloads under transport.retransmit_*.
  EXPECT_EQ(metrics.counter_value(names::kEngineRecordsSent), lossy.records_sent);
  EXPECT_EQ(metrics.counter_value(names::kTransportRetransmitRecords),
            lossy.retransmit_records);
  EXPECT_GT(metrics.gauge_value(names::kTransportRetransmitBytes), 0.0);
  // Retransmit bytes never leak into the fresh data-byte gauge: fresh bytes
  // match the clean run's wire volume exactly.
  MetricsRegistry clean_metrics;
  (void)run_with_ack_probability(1.0, &clean_metrics);
  EXPECT_EQ(metrics.gauge_value(names::kEngineDataBytes),
            clean_metrics.gauge_value(names::kEngineDataBytes));
}

}  // namespace
}  // namespace p2prank::obs
