// Central registry of metric and trace-event names.
//
// Every name passed to obs::MetricsRegistry or obs::Tracer MUST be one of
// the constants below — the p2plint rule `metric-name-registry` rejects
// inline string literals at those call sites. One declaration per name
// keeps the namespace greppable, collision-free, and stable across PRs
// (snapshot keys are part of the observability contract, DESIGN.md §11).
//
// Naming scheme: `<subsystem>.<quantity>`, lower_snake_case, no units in
// the name unless disambiguation needs them (`*_bytes`, `*_log10`).
// Indexed variants (per ranker group) append `.<index>` via the indexed
// registry accessors; the constant names the family.
#pragma once

#include <string_view>

namespace p2prank::obs::names {

// --- engine: the paper's §4.4/§4.5 quantities --------------------------
inline constexpr std::string_view kEngineOuterSteps = "engine.outer_steps";
inline constexpr std::string_view kEngineInnerSweeps = "engine.inner_sweeps";
inline constexpr std::string_view kEngineMessagesSent = "engine.messages_sent";
inline constexpr std::string_view kEngineMessagesLost = "engine.messages_lost";
inline constexpr std::string_view kEngineDeliveries = "engine.deliveries";
/// Fresh Y-slice records only — the paper's W. Retransmitted records are
/// under transport.retransmit_records, never here (see DESIGN.md §11).
inline constexpr std::string_view kEngineRecordsSent = "engine.records_sent";
inline constexpr std::string_view kEngineRecordHops = "engine.record_hops";
inline constexpr std::string_view kEngineDataBytes = "engine.data_bytes";
inline constexpr std::string_view kEngineChurnEvents = "engine.churn_events";
/// Per fresh send: record count of the Y slice (Log2Histogram).
inline constexpr std::string_view kEngineSliceRecords = "engine.slice_records";
/// Per DPR1 local solve: Jacobi iterations used (Log2Histogram).
inline constexpr std::string_view kEngineInnerIterations = "engine.inner_iterations";
/// Per outer step: log10 of the L1 residual (LinearHistogram).
inline constexpr std::string_view kEngineStepResidualLog10 =
    "engine.step_residual_log10";
/// Indexed per ranker group: outer steps executed / last L1 step residual.
inline constexpr std::string_view kEngineGroupOuterSteps = "engine.group_outer_steps";
inline constexpr std::string_view kEngineGroupResidual = "engine.group_residual";

// --- transport: reliable-exchange overhead (never mixed into engine.*) --
inline constexpr std::string_view kTransportRetransmissions =
    "transport.retransmissions";
inline constexpr std::string_view kTransportRetransmitRecords =
    "transport.retransmit_records";
inline constexpr std::string_view kTransportRetransmitBytes =
    "transport.retransmit_bytes";
inline constexpr std::string_view kTransportAcksSent = "transport.acks_sent";
inline constexpr std::string_view kTransportAcksDelivered =
    "transport.acks_delivered";
inline constexpr std::string_view kTransportDuplicatesRejected =
    "transport.duplicates_rejected";
inline constexpr std::string_view kTransportSuspicions = "transport.suspicions";
/// Data slices and acks dropped by an active cut. A dropped slice is also in
/// engine.messages_lost; a dropped ack is not.
inline constexpr std::string_view kTransportPartitionDrops =
    "transport.partition_drops";
/// Corrupted/garbage frames rejected by the codec at delivery.
inline constexpr std::string_view kTransportFramesQuarantined =
    "transport.frames_quarantined";

// --- recover: partition-tolerant self-healing (DESIGN.md §13) ------------
inline constexpr std::string_view kRecoverEvictions = "recover.evictions";
inline constexpr std::string_view kRecoverRejoins = "recover.rejoins";
/// Ledger refreshes forced by scripted (non-supervisor) membership change.
inline constexpr std::string_view kRecoverResyncs = "recover.resyncs";

// --- exchange: one-shot overlay exchange simulations (§4.4) -------------
inline constexpr std::string_view kExchangeDataMessages = "exchange.data_messages";
inline constexpr std::string_view kExchangeDataBytes = "exchange.data_bytes";
inline constexpr std::string_view kExchangeLookupMessages =
    "exchange.lookup_messages";
inline constexpr std::string_view kExchangeLookupBytes = "exchange.lookup_bytes";
inline constexpr std::string_view kExchangeRecordsDelivered =
    "exchange.records_delivered";
inline constexpr std::string_view kExchangeRecordHops = "exchange.record_hops";
inline constexpr std::string_view kExchangeRounds = "exchange.rounds";
/// Per data message: payload size in (integer) bytes (Log2Histogram).
inline constexpr std::string_view kExchangeMessageBytes = "exchange.message_bytes";

// --- pool: fork-join accounting -----------------------------------------
// Deterministic family: depends only on the work submitted, not the pool
// size (grain decompositions from parallel_for_grains are a function of
// (n, grain) alone).
inline constexpr std::string_view kPoolParallelForCalls = "pool.parallel_for_calls";
inline constexpr std::string_view kPoolGrainedCalls = "pool.grained_calls";
inline constexpr std::string_view kPoolIndices = "pool.indices";
inline constexpr std::string_view kPoolFixedGrains = "pool.fixed_grains";
// Unstable family (registered via counter_unstable, excluded from the
// default snapshot): chunking and the inline-vs-dispatch decision depend
// on the pool size, and worker claim counts race benignly.
inline constexpr std::string_view kPoolDispatches = "pool.dispatches";
inline constexpr std::string_view kPoolWorkerClaims = "pool.worker_claims";

// --- check: chaos harness -----------------------------------------------
inline constexpr std::string_view kCheckOpsApplied = "check.ops_applied";
inline constexpr std::string_view kCheckSamples = "check.samples";

// --- serve: rank serving layer (DESIGN.md §12) ---------------------------
inline constexpr std::string_view kServeQueries = "serve.queries";
inline constexpr std::string_view kServePointQueries = "serve.point_queries";
inline constexpr std::string_view kServeTopkQueries = "serve.topk_queries";
/// Queries answered before any snapshot was published (no epoch to pin).
inline constexpr std::string_view kServeUnavailable = "serve.unavailable";
/// Queries answered from an epoch at or below the invalidation watermark
/// (served anyway — availability over freshness; see DESIGN.md §12).
inline constexpr std::string_view kServeStaleReads = "serve.stale_reads";
/// Queries whose pinned snapshot mixed shard epochs. The serving contract
/// says this is impossible; the counter is the machine check.
inline constexpr std::string_view kServeTornReads = "serve.torn_reads";
inline constexpr std::string_view kServeSnapshotsPublished =
    "serve.snapshots_published";
inline constexpr std::string_view kServeSnapshotsInvalidated =
    "serve.snapshots_invalidated";
/// Publishes that recycled a retired buffer instead of allocating.
inline constexpr std::string_view kServeBufferReuses = "serve.buffer_reuses";
/// Closed-loop query latency in virtual time units (LinearHistogram).
inline constexpr std::string_view kServeLatency = "serve.latency";
/// Exact latency quantiles / throughput of a finished load run (gauges).
inline constexpr std::string_view kServeLatencyP50 = "serve.latency_p50";
inline constexpr std::string_view kServeLatencyP99 = "serve.latency_p99";
inline constexpr std::string_view kServeQps = "serve.qps";
/// High-water mark of the service queue (gauge).
inline constexpr std::string_view kServeMaxQueueDepth = "serve.max_queue_depth";
/// Queries answered past the staleness bound and flagged as such.
inline constexpr std::string_view kServeDegradedReads = "serve.degraded_reads";
/// Queries that touched a shard marked unavailable by the supervisor.
inline constexpr std::string_view kServeShardUnavailableReads =
    "serve.shard_unavailable_reads";

// --- trace event names ---------------------------------------------------
inline constexpr std::string_view kTraceStep = "engine.step";
inline constexpr std::string_view kTraceMsgFlight = "engine.msg_flight";
inline constexpr std::string_view kTraceRetransmit = "engine.retransmit";
inline constexpr std::string_view kTraceChurn = "engine.churn";
inline constexpr std::string_view kTraceChaosOp = "chaos.op";
inline constexpr std::string_view kTraceSample = "check.sample";
inline constexpr std::string_view kTracePhase = "check.phase";
/// Engine published a rank snapshot epoch into the serving sink.
inline constexpr std::string_view kTraceSnapshot = "serve.snapshot";
/// One served query's issue→completion span (closed-loop load generator).
inline constexpr std::string_view kTraceServeQuery = "serve.query";
/// RecoverySupervisor state transition (eviction / rejoin / resync).
inline constexpr std::string_view kTraceRecovery = "recover.transition";

}  // namespace p2prank::obs::names
