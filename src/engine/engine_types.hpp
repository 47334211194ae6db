// Options and result types for the distributed page-ranking engine.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/metric_names.hpp"
#include "overlay/overlay.hpp"
#include "transport/exchange.hpp"

namespace p2prank::obs {
class MetricsRegistry;
class Tracer;
}  // namespace p2prank::obs

namespace p2prank::engine {

/// One ranker group's slice of a snapshot cut: `ranks[i]` is the rank of
/// global page `members[i]`. Members are ascending (PageGroup keeps them
/// that way); the views alias live group state and are only valid while
/// the publish_groups call they were passed to is on the stack.
struct GroupCut {
  std::span<const std::uint32_t> members;
  std::span<const double> ranks;
};

/// Engine → serving handoff (DESIGN.md §12 "Serving contract"). The engine
/// pushes consistent (ranks, ownership) states into this interface at
/// loop-step boundaries; src/serve/ implements it with epoch-swapped
/// immutable snapshots that concurrent readers query without ever blocking
/// a sweep. The interface lives engine-side so the engine never links the
/// serving layer — the dependency points serve → engine only.
///
/// Every call happens on the simulation thread. Implementations that hand
/// the state to other threads (the whole point) own that synchronization.
class RankSnapshotSink {
 public:
  virtual ~RankSnapshotSink() = default;

  /// Dense form of publish_groups(): the global rank vector and the
  /// page → shard map, with shard ids in [0, num_shards). Throws
  /// std::invalid_argument, publishing nothing, when the two spans differ
  /// in length or a shard id is out of range; otherwise forwards one cut
  /// per shard to publish_groups() with ownership_version 0. The spans are
  /// valid only for the duration of the call.
  virtual void publish(double time, std::span<const double> ranks,
                       std::span<const std::uint32_t> assignment,
                       std::uint32_t num_shards) {
    if (ranks.size() != assignment.size()) {
      throw std::invalid_argument("RankSnapshotSink::publish: size mismatch");
    }
    std::vector<std::vector<std::uint32_t>> members(num_shards);
    std::vector<std::vector<double>> shard_ranks(num_shards);
    for (std::uint32_t page = 0; page < assignment.size(); ++page) {
      const std::uint32_t sh = assignment[page];
      if (sh >= num_shards) {
        throw std::invalid_argument(
            "RankSnapshotSink::publish: shard id >= num_shards");
      }
      members[sh].push_back(page);
      shard_ranks[sh].push_back(ranks[page]);
    }
    std::vector<GroupCut> cuts(num_shards);
    for (std::uint32_t sh = 0; sh < num_shards; ++sh) {
      cuts[sh] = GroupCut{members[sh], shard_ranks[sh]};
    }
    publish_groups(time, cuts, static_cast<std::uint32_t>(ranks.size()),
                   /*ownership_version=*/0);
  }

  /// One consistent cut of the engine at virtual time `time`, one entry per
  /// ranker group, the group's shard id being its position in `groups`.
  /// Members are ascending global page ids (PageGroup's invariant) and
  /// groups partition the owned pages; pages in no group (post-crash
  /// orphans) read as unowned. Called at construction, every
  /// snapshot_interval of virtual time at loop-step boundaries, and after
  /// every warm start (initial seeding, churn handoff, checkpoint restore)
  /// — so ownership changes are republished promptly. Handing the
  /// per-group views straight through lets the sink scatter into its own
  /// storage exactly once instead of the engine materializing dense
  /// vectors the sink would immediately re-copy and re-scan. The spans die
  /// when the call returns.
  ///
  /// `ownership_version` is a monotone counter the publisher bumps whenever
  /// the page → group map changes (0 = unknown). Ranks change every
  /// publish but ownership almost never does, so sinks may keep
  /// ownership-derived state (dense shard maps, shard page counts) from
  /// any earlier publish with the same nonzero version instead of
  /// rewriting it.
  virtual void publish_groups(double time, std::span<const GroupCut> groups,
                              std::uint32_t num_pages,
                              std::uint64_t ownership_version) = 0;

  /// Every previously published epoch is now a lie: a checkpoint restore
  /// rolled the engine back past it (the serving twin of drop_in_flight()'s
  /// in-flight-slice rollback). Implementations mark published state stale
  /// but keep serving it — availability over freshness — until the next
  /// publish supersedes it.
  virtual void invalidate(double time) = 0;
};

/// Which of the paper's two algorithms a ranker runs per loop step.
enum class Algorithm {
  /// DPR1 (Algorithm 3): refresh X, solve the local system to convergence
  /// (GroupPageRank), then send Y.
  kDPR1,
  /// DPR2 (Algorithm 4): refresh X, do exactly one Jacobi sweep, send Y
  /// eagerly.
  kDPR2,
};

struct EngineOptions {
  Algorithm algorithm = Algorithm::kDPR1;
  double alpha = 0.85;

  /// Inner-loop termination for DPR1's GroupPageRank call (L1 delta).
  double inner_epsilon = 1e-12;

  /// Probability a Y message actually reaches its destination (the paper's
  /// p, read as delivery probability).
  double delivery_probability = 1.0;

  /// Wait-time interval: each group's mean wait is drawn from [t1, t2];
  /// waits are exponential with that mean (Section 5's Tw(u, m)).
  double t1 = 0.0;
  double t2 = 6.0;

  /// Virtual-time delay between a send and its arrival. The paper's
  /// experiments fold network delay into the waits, so 0 is the default.
  /// Ignored when `overlay` is set.
  double delivery_latency = 0.0;

  /// Additional per-message delivery delay drawn uniformly from
  /// [0, latency_jitter). Nonzero jitter reorders messages on the same
  /// (src, dst) pair — exactly the hazard the reliable layer's epochs
  /// guard against. Applies on top of delivery_latency / overlay hops.
  double latency_jitter = 0.0;

  /// Reliable-exchange layer (src/transport/reliable.hpp, DESIGN.md §8),
  /// all of it or none: per-(src,dst) epochs reject stale reordered slices,
  /// cumulative acks ride their own lossy channel (it starts at
  /// delivery_probability), the newest unacked slice per peer is
  /// retransmitted on a fixed backoff schedule, and a peer that misses 4
  /// timers in a row is suspected (its retransmits park; fresh sends still
  /// probe it). false (default) = fire-and-forget, the paper's channel.
  bool reliable = false;

  /// Full-stack mode: route every Y message over this overlay (ranker i
  /// lives on overlay node i; requires overlay->num_nodes() >= k). Delivery
  /// latency becomes per_hop_latency × route hops — indirect transmission's
  /// timing (Section 4.4) instead of an abstract channel. The overlay must
  /// outlive the engine. nullptr (default) keeps the paper's abstract
  /// channel.
  const overlay::Overlay* overlay = nullptr;
  double per_hop_latency = 0.5;

  /// Distributed termination detection (the paper's algorithms loop
  /// "while true"; a deployment needs a stopping rule that uses only local
  /// information). When > 0, every ranker reports after each loop step
  /// whether the step changed its rank vector by at most this L1 amount; a
  /// coordinator ranker declares convergence the first time every
  /// non-empty group's latest report is "stable". Status messages are
  /// small, reliable (think TCP), and counted separately. 0 disables.
  double stability_epsilon = 0.0;

  /// Former kernel switches, kept as fields only because the perfbench
  /// harness still assigns them; they go once it stops. Every group sweeps
  /// with the exact frontier kernel (DESIGN.md §6): `worklist` is ignored,
  /// and validated() rejects any worklist_epsilon other than 0.
  bool worklist = false;
  double worklist_epsilon = 0.0;

  /// Delta-send threshold (the paper's "explore more methods for reducing
  /// communication overhead" future work): a Y entry is only transmitted
  /// when its value moved at least this much since the last delivered send.
  /// 0 sends full slices every step (the paper's algorithms as written).
  /// Nonzero saves most records late in convergence at the price of a
  /// relative-error floor on the order of threshold·(cut entries)/||R*||.
  double send_threshold = 0.0;

  /// Chaos-harness self-test ONLY (src/check): when set to a valid group
  /// index, that group's afferent-update path is dead — slices delivered to
  /// it and warm-start priming alike are never applied to its X (so churn /
  /// restore state transfers cannot heal it). A deliberately broken
  /// engine the scenario checker must flag: its ranks converge to a too-low
  /// fixed point, failing the convergence invariant. If the group departs
  /// in churn, its successor inherits the fault. The default (no group)
  /// leaves the engine correct.
  std::uint32_t fault_skip_refresh_group = UINT32_MAX;

  /// Observability (DESIGN.md §11): when non-null, the engine adds its
  /// EngineCounters into this registry at the end of run(), run_until_error()
  /// and every churn handoff (so a registry shared by several engines holds
  /// their sum), feeds its histograms as it steps, and emits virtual-time
  /// trace events into this tracer. Both must outlive the engine. Pure
  /// observation — enabling them never changes rank results, RNG streams,
  /// or event ordering. nullptr (default) = off, zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  /// Rank serving (DESIGN.md §12): when non-null, the engine publishes a
  /// consistent (global ranks, ownership) state into this sink — at
  /// construction, then every snapshot_interval of virtual time at loop-step
  /// boundaries, and after every warm start (so churn handoffs and restores
  /// republish the new ownership immediately) — and calls invalidate() from
  /// drop_in_flight() (a restore is a global rollback; published epochs from
  /// the rolled-back timeline are stale). Pure observation: attaching a sink
  /// never changes rank results, RNG streams, or event ordering. Must
  /// outlive the engine. nullptr (default) = serving off, zero overhead.
  RankSnapshotSink* snapshot_sink = nullptr;
  /// Virtual-time cadence of snapshot publication (snapshot_sink only).
  double snapshot_interval = 1.0;

  std::uint64_t seed = 7;
};

/// One point of the Fig. 6 / Fig. 7 time series.
struct Sample {
  double time = 0.0;
  /// ||R - R*||_1 / ||R*||_1 against the centralized reference.
  double relative_error = 0.0;
  /// Mean rank over all pages (Fig. 7's y-axis).
  double average_rank = 0.0;
  /// min over pages of (rank_now - rank_at_previous_sample): >= 0 iff the
  /// sequence stayed monotone since the last sample (Theorem 4.1's claim).
  double min_rank_delta = 0.0;
  /// Total outer loop steps executed across all groups so far.
  std::uint64_t total_outer_steps = 0;
};

/// The engine's tallies, each kept once (DESIGN.md §11): the §4.5 cost
/// quantities (messages and records — W, D_dt = l·W, D_it = h·l·W) plus the
/// reliable layer's overhead and the fault plane's drops.
/// DistributedRanking::counters() reads each from the object that observes
/// the event; the metrics registry receives them as deltas at run boundaries.
struct EngineCounters {
  std::uint64_t outer_steps = 0;    ///< all groups, incl. rankers retired by churn
  std::uint64_t inner_sweeps = 0;   ///< DPR1's hidden cost; = outer_steps for DPR2
  std::uint64_t messages_sent = 0;  ///< Y-slice sends, fresh and retransmitted
  std::uint64_t messages_lost = 0;  ///< dropped by the loss model or an active cut
  std::uint64_t deliveries = 0;     ///< slices delivered past the epoch filter
  /// Fresh records only — the paper's W. A retransmit re-ships bytes, not
  /// logical records, so its copies go to retransmit_records instead.
  std::uint64_t records_sent = 0;
  std::uint64_t record_hops = 0;   ///< Σ records × overlay hops (full-stack mode)
  std::uint64_t churn_events = 0;  ///< completed leave/join handoffs

  // Reliable exchange (all 0 with fire-and-forget).
  std::uint64_t retransmissions = 0;  ///< also counted in messages_sent
  std::uint64_t retransmit_records = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_delivered = 0;
  std::uint64_t duplicates_rejected = 0;  ///< stale slices the epoch filter ate
  std::uint64_t suspicions = 0;           ///< peers newly suspected dead
  std::uint64_t zombie_retransmits = 0;   ///< timers of acked epochs; stays 0

  // Fault plane, codec and guards.
  /// Data slices and acks the active cut dropped. A dropped slice is also in
  /// messages_lost, a dropped ack is not, so this can exceed messages_lost.
  std::uint64_t partition_drops = 0;
  std::uint64_t frames_corrupted = 0;        ///< frames the plane flipped bytes in
  std::uint64_t frames_quarantined = 0;      ///< rejected by the codec at delivery
  std::uint64_t corrupt_frames_applied = 0;  ///< checksum collisions; stays 0
  std::uint64_t slices_rejected = 0;  ///< delivery-time payload guard; stays 0
  std::uint64_t status_messages = 0;  ///< termination-detection reports

  /// §4.5 wire cost of the fresh sends: a 40-byte envelope per message plus
  /// ~100 bytes per <url_from, url_to, score> record. Exact in a double.
  [[nodiscard]] double data_bytes() const noexcept {
    constexpr transport::WireFormat kWire{};
    return kWire.header_bytes * static_cast<double>(messages_sent - retransmissions) +
           kWire.record_bytes * static_cast<double>(records_sent);
  }
  /// The same price for the reliable layer's re-shipped slices.
  [[nodiscard]] double retransmit_bytes() const noexcept {
    constexpr transport::WireFormat kWire{};
    return kWire.header_bytes * static_cast<double>(retransmissions) +
           kWire.record_bytes * static_cast<double>(retransmit_records);
  }

  EngineCounters& operator+=(const EngineCounters& o) noexcept;
  /// Per-interval tallies, e.g. what a run added since the last export.
  friend EngineCounters operator-(EngineCounters a, const EngineCounters& b) noexcept;
  friend bool operator==(const EngineCounters&, const EngineCounters&) = default;
};

/// Every EngineCounters field with its registry name; an empty name marks a
/// tally the registry does not carry (the invariant checker reads those).
struct CounterField {
  std::string_view metric;
  std::uint64_t EngineCounters::*field;
};
inline constexpr CounterField kCounterFields[] = {
    {obs::names::kEngineOuterSteps, &EngineCounters::outer_steps},
    {obs::names::kEngineInnerSweeps, &EngineCounters::inner_sweeps},
    {obs::names::kEngineMessagesSent, &EngineCounters::messages_sent},
    {obs::names::kEngineMessagesLost, &EngineCounters::messages_lost},
    {obs::names::kEngineDeliveries, &EngineCounters::deliveries},
    {obs::names::kEngineRecordsSent, &EngineCounters::records_sent},
    {obs::names::kEngineRecordHops, &EngineCounters::record_hops},
    {obs::names::kEngineChurnEvents, &EngineCounters::churn_events},
    {obs::names::kTransportRetransmissions, &EngineCounters::retransmissions},
    {obs::names::kTransportRetransmitRecords, &EngineCounters::retransmit_records},
    {obs::names::kTransportAcksSent, &EngineCounters::acks_sent},
    {obs::names::kTransportAcksDelivered, &EngineCounters::acks_delivered},
    {obs::names::kTransportDuplicatesRejected, &EngineCounters::duplicates_rejected},
    {obs::names::kTransportSuspicions, &EngineCounters::suspicions},
    {{}, &EngineCounters::zombie_retransmits},
    {obs::names::kTransportPartitionDrops, &EngineCounters::partition_drops},
    {{}, &EngineCounters::frames_corrupted},
    {obs::names::kTransportFramesQuarantined, &EngineCounters::frames_quarantined},
    {{}, &EngineCounters::corrupt_frames_applied},
    {{}, &EngineCounters::slices_rejected},
    {{}, &EngineCounters::status_messages},
};
static_assert(sizeof(EngineCounters) == std::size(kCounterFields) * sizeof(std::uint64_t),
              "every EngineCounters field needs a kCounterFields row");

inline EngineCounters& EngineCounters::operator+=(const EngineCounters& o) noexcept {
  for (const CounterField& f : kCounterFields) this->*f.field += o.*f.field;
  return *this;
}

inline EngineCounters operator-(EngineCounters a, const EngineCounters& b) noexcept {
  for (const CounterField& f : kCounterFields) a.*f.field -= b.*f.field;
  return a;
}

/// run_until_error's report: the engine's counters when it returned, plus
/// the convergence measurement itself.
struct ConvergenceResult : EngineCounters {
  bool reached = false;
  double time = 0.0;
  /// Mean outer loop steps per (non-empty) group when the threshold was
  /// first met — the paper's Fig. 8 y-axis.
  double mean_outer_steps = 0.0;
  double final_relative_error = 0.0;
};

}  // namespace p2prank::engine
