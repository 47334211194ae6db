// The distributed page-ranking simulation: K page rankers (PageGroups)
// running DPR1 or DPR2 asynchronously over a lossy message channel, driven
// by a discrete-event queue (the experiment apparatus of Section 5).
//
// Each ranker's loop step is one event: compute R (to convergence for DPR1,
// one sweep for DPR2) from the X it holds, compute and send a Y slice to
// every group it has cut edges into (each send independently survives with
// probability p), then reschedule after an exponential wait. A slice that
// survives is applied to its receiver's X when it is delivered ("Refresh
// X"), so the receiver's next step reads the newest slice from each source.
//
// On top of the paper's fire-and-forget channel the engine can run the
// reliable exchange layer (EngineOptions::reliable, src/transport/
// reliable.hpp): epoch-stamped Y slices so jitter-reordered stale slices
// are rejected instead of clobbering newer X entries, ack/retransmit with
// exponential backoff for lossy channels, and suspicion-based failure
// detection that parks retransmits to a silent peer.
// Ranker churn (leave_group / join_group) hands pages between rankers
// through the checkpoint state-transfer path while in-flight slices from
// the old wiring are dropped via a churn generation stamp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/engine_types.hpp"
#include "engine/page_group.hpp"
#include "graph/web_graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/processes.hpp"
#include "transport/fault_plane.hpp"
#include "transport/frame.hpp"
#include "transport/reliable.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {

class DistributedRanking {
 public:
  /// `assignment[p]` = group of page p, values in [0, k). Groups may be
  /// empty (they then simply never run). The graph must outlive this
  /// object. Throws std::invalid_argument with a field-naming message for
  /// invalid EngineOptions (negative latencies/jitter,
  /// delivery_probability outside [0,1], overlay smaller than k, ...).
  DistributedRanking(const graph::WebGraph& g,
                     std::span<const std::uint32_t> assignment, std::uint32_t k,
                     const EngineOptions& opts, util::ThreadPool& pool);

  /// Reference ranks R* for the relative-error metric (normally
  /// open_system_reference(...)). Required before run()/run_until_error().
  void set_reference(std::vector<double> reference);

  /// Seed every group's rank vector from a global vector (one entry per
  /// page). Used after a link-graph change: build a fresh engine on the
  /// mutated graph and warm-start it from the previous run's global_ranks()
  /// — convergence resumes from there instead of from zero. Call before
  /// run(); with the theorems' R0 = 0 premise gone, monotonicity may not
  /// hold (exactly the paper's Section 4.3 caveat), but convergence does.
  void warm_start(std::span<const double> global_ranks);

  /// Every group's exported worklist frontier, indexed by group. Captured
  /// on the engine being retired, installed into its successor by
  /// warm_start_incremental.
  struct WorklistCarrySet {
    std::vector<PageGroup::WorklistCarry> groups;
  };

  /// Snapshot all groups' worklist frontiers for an incremental graph swap.
  /// Groups without an exportable frontier contribute invalid entries (the
  /// successor falls back to a dense warm start for those groups only).
  [[nodiscard]] WorklistCarrySet export_worklist_carry() const;

  /// warm_start for a *link-only* graph splice (graph::apply_updates_delta
  /// with incremental == true): seeds ranks like warm_start, but also
  /// installs the predecessor engine's worklist frontiers so converged rows
  /// stay skipped instead of the whole web re-sweeping densely.
  /// `changed_rows` / `changed_sources` are the delta's in_changed /
  /// degree_changed page lists; they re-seed exactly the affected frontier
  /// rows. Precondition: identical membership and assignment as the engine
  /// that exported `carry` (the chaos runner guards this); with a mismatched
  /// carry every group falls back to the dense path, so the call degrades to
  /// plain warm_start. At worklist ε = 0 the resulting rank trajectory is
  /// bitwise-identical to rebuild-then-warm_start (DESIGN.md §14, locked by
  /// test).
  void warm_start_incremental(std::span<const double> global_ranks,
                              WorklistCarrySet carry,
                              std::span<const graph::PageId> changed_rows,
                              std::span<const graph::PageId> changed_sources);

  /// Suspend a ranker: it stops looping until resume_group (the paper's
  /// "sleep for some time, suspend itself as its wish, or even shutdown").
  /// Its last Y values stay in force at its peers. Defined edge cases:
  /// pausing is level-triggered and idempotent (a second pause_group is a
  /// no-op, and one resume_group wakes the group regardless of how many
  /// pauses preceded it); pausing an empty group is allowed and harmless;
  /// an out-of-range group throws std::out_of_range. A paused ranker's
  /// transport stack stays up: deliveries are still applied to its X and
  /// acked — only the application loop sleeps.
  void pause_group(std::uint32_t group);
  /// Wake a suspended ranker; it reschedules from the current time. A
  /// resume of a group that is not paused is a no-op (never double-
  /// schedules); resuming an empty group marks it unpaused but schedules
  /// nothing.
  void resume_group(std::uint32_t group);
  [[nodiscard]] bool is_paused(std::uint32_t group) const;

  /// Crash a ranker: all its in-memory state (R, X, delta baselines) is
  /// lost; it keeps running from scratch. Peers hold its last Y values
  /// until it sends again, and re-deliver theirs on their next loop steps,
  /// so the group re-converges. Note that global monotonicity (Thm 4.1)
  /// does NOT survive a crash: the rebooted ranker's next Y is computed
  /// from its reset ranks and *replaces* the higher pre-crash entries in
  /// peers' X, so peers' ranks can legitimately dip before re-converging.
  /// Combine with pause/resume for a crash + downtime, or
  /// warm_start-from-checkpoint for recovery.
  /// Defined edge cases: crashing a *paused* group wipes its state but
  /// leaves it paused — it reboots into standby and only runs again after
  /// resume_group; crashing an empty group is a no-op; repeated crashes are
  /// idempotent; messages already in flight (sent pre-crash with a delivery
  /// delay) still arrive afterwards and are applied to the reset X — the
  /// network does not lose them just because the receiver rebooted (they
  /// are idempotent X patches); an out-of-range group throws
  /// std::out_of_range. With the reliable layer on, the crashed sender's
  /// retransmit buffers are wiped with the rest of its memory, but per-pair
  /// epochs are transport-session state and survive — peers keep rejecting
  /// stale slices and keep retransmitting *to* the crashed ranker until it
  /// acks again.
  void crash_group(std::uint32_t group);

  /// Ranker churn: `group` departs the overlay, handing every page it owns
  /// to `successor` through the checkpoint state-transfer path (the rank
  /// state round-trips through the text format, exactly what a real
  /// handoff would ship). Peers re-route subsequent Y slices via the
  /// rebuilt cut-edge wiring; slices still in flight against the old
  /// wiring are dropped by a churn generation stamp (their sender will
  /// retransmit / re-send against the new wiring). Rank values are
  /// preserved exactly, so a consistent (sub-fixed-point) state stays
  /// consistent: Thm 4.1/4.2 hold across a leave. Throws
  /// std::out_of_range / std::invalid_argument on bad indices, departing
  /// an empty group, or successor == group.
  void leave_group(std::uint32_t group, std::uint32_t successor);

  /// Drop every message currently in flight (undelivered Y slices, buffered
  /// retransmit payloads) without touching rank state. A crash deliberately
  /// keeps in-flight messages alive — the network does not lose them just
  /// because a receiver rebooted — but a checkpoint *restore* is a global
  /// rollback: slices sent from the rolled-back timeline would leak
  /// higher-than-restored Y values into peers' X, only to be deflated by
  /// the first post-restore send (a rank dip the monotone checker rightly
  /// rejects). The chaos runner calls this between the crash wave and the
  /// warm_start of a restore. Per-pair epochs survive (transport-session
  /// state, like crash and churn).
  void drop_in_flight();

  /// Ranker churn: an empty `group` joins the overlay and takes the upper
  /// half of `donor`'s pages (donor keeps at least one). Same state
  /// transfer and generation rules as leave_group. Throws on bad indices,
  /// a non-empty joining group, or a donor with fewer than two pages.
  void join_group(std::uint32_t group, std::uint32_t donor);

  /// Current page -> group ownership map (exactly one owner per page).
  [[nodiscard]] std::vector<std::uint32_t> current_assignment() const {
    return page_group_;
  }

  /// Change the Y-message delivery probability from now on (chaos-harness
  /// loss bursts). In-flight messages are unaffected; the loss RNG stream
  /// keeps consuming one draw per send, so the same seed keeps losing the
  /// same send indices across probability levels.
  void set_delivery_probability(double p) { loss_.set_probability(p); }
  [[nodiscard]] double delivery_probability() const noexcept {
    return loss_.delivery_probability();
  }

  /// Change the ack-channel delivery probability (reliable mode; no effect
  /// otherwise). It starts at delivery_probability; the chaos harness sets
  /// it for ack-only loss bursts. Leaves the ack channel's RNG stream alone.
  void set_ack_delivery_probability(double p) { ack_loss_.set_probability(p); }

  /// Change the per-message delivery-latency jitter from now on (reorder
  /// bursts). Must be >= 0.
  void set_latency_jitter(double jitter);

  // --- Fault plane: partitions + frame corruption (DESIGN.md §13) ----------
  /// Install a network cut: groups in `side_a_mask` form side A; messages
  /// crossing A→B / B→A are delivered with the given probabilities (0 =
  /// hard cut). One cut is active at a time; a new call replaces it. The
  /// plane draws from its own RNG only while a cut is active, so runs that
  /// never partition are bit-identical to the pre-fault-plane engine.
  void set_partition(std::uint64_t side_a_mask, double deliver_ab,
                     double deliver_ba) {
    fault_plane_.set_partition(side_a_mask, deliver_ab, deliver_ba);
  }
  void heal_partition() { fault_plane_.heal(); }
  /// Per-frame byte-corruption probability. While > 0 every Y slice
  /// round-trips through the checksummed frame codec at delivery; corrupted
  /// frames are quarantined (counted, never applied, never acked).
  void set_corruption(double probability) {
    fault_plane_.set_corruption(probability);
  }
  /// Deterministic link probe (no RNG draw): false only while a hard
  /// directed cut (delivery probability 0) separates src from dst. The
  /// RecoverySupervisor's heal detector.
  [[nodiscard]] bool probe_link(std::uint32_t src, std::uint32_t dst) const {
    return fault_plane_.link_up(src, dst);
  }
  /// Whether the reliable layer currently suspects dst from src's
  /// viewpoint (false in fire-and-forget mode).
  [[nodiscard]] bool suspected(std::uint32_t src, std::uint32_t dst) const {
    return reliable_ ? reliable_->suspected(src, dst) : false;
  }
  /// Whether src has cut edges into dst (i.e. sends it Y slices).
  [[nodiscard]] bool has_cut_edges(std::uint32_t src, std::uint32_t dst) const;

  /// Advance virtual time to t_end, recording a Sample every
  /// `sample_interval` time units (Fig. 6 / Fig. 7 series). May be called
  /// repeatedly; time continues where it left off.
  [[nodiscard]] std::vector<Sample> run(double t_end, double sample_interval = 1.0);

  /// Advance until the relative error vs the reference drops to
  /// `threshold`, checking every `check_interval` units, giving up at
  /// max_time (Fig. 8 measurement).
  [[nodiscard]] ConvergenceResult run_until_error(double threshold, double max_time,
                                                  double check_interval = 1.0);

  /// Assemble the global rank vector from all groups' local vectors.
  [[nodiscard]] std::vector<double> global_ranks() const;

  /// ||R − R*||_1 / ||R*||_1 against the reference, bit for bit what
  /// util::relative_error(global_ranks(), reference) returns, summed
  /// without assembling the global vector.
  [[nodiscard]] double relative_error_now() const;

  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return static_cast<std::uint32_t>(groups_.size());
  }
  [[nodiscard]] const PageGroup& group(std::uint32_t i) const { return *groups_.at(i); }
  [[nodiscard]] std::uint32_t nonempty_groups() const noexcept { return nonempty_; }
  [[nodiscard]] sim::SimTime now() const noexcept { return queue_.now(); }

  /// Every tally of this engine since construction, read from the object
  /// that observes each event (see EngineCounters).
  [[nodiscard]] EngineCounters counters() const noexcept;

  // --- Reliable-exchange state (all 0 with fire-and-forget) ----------------
  [[nodiscard]] std::uint32_t suspected_pairs() const noexcept {
    return reliable_ ? reliable_->suspected_pairs() : 0;
  }
  /// Pairs currently holding an unacked buffered slice.
  [[nodiscard]] std::uint64_t pending_retransmits() const noexcept {
    return pending_payload_.size();
  }
  /// Receiver-side epoch high-water mark for (src, dst); non-decreasing
  /// for the lifetime of the engine (epochs survive crash and churn).
  [[nodiscard]] std::uint64_t accepted_epoch(std::uint32_t src,
                                             std::uint32_t dst) const noexcept {
    return reliable_ ? reliable_->accepted_epoch(src, dst) : 0;
  }

  /// Mean outer steps per non-empty group (counters().outer_steps counts
  /// steps by rankers that have since departed in churn too).
  [[nodiscard]] double mean_outer_steps() const noexcept;
  /// counters().inner_sweeps without assembling the rest.
  [[nodiscard]] std::uint64_t total_inner_sweeps() const noexcept {
    return tally_.inner_sweeps;
  }

  /// Per-group diagnostics: loop steps and wire records emitted by each
  /// group so far (straggler/hot-spot analysis). The records are the one
  /// tally counters().records_sent sums.
  [[nodiscard]] std::vector<std::uint64_t> outer_steps_per_group() const;
  [[nodiscard]] std::span<const std::uint64_t> records_sent_per_group() const noexcept {
    return records_per_group_;
  }

  /// Termination detection results (opts.stability_epsilon > 0 only).
  [[nodiscard]] bool termination_detected() const noexcept {
    return termination_time_ >= 0.0;
  }
  /// Virtual time at which the coordinator first saw every group stable
  /// (-1 when not (yet) detected).
  [[nodiscard]] double termination_time() const noexcept {
    return termination_time_;
  }

 private:
  static EngineOptions validated(EngineOptions opts);
  void build_groups(std::span<const std::uint32_t> assignment, std::uint32_t k);
  void schedule_step(std::uint32_t group);
  void run_step(std::uint32_t group);
  void init_obs();
  /// Add counters() − exported_ (and the per-group step deltas) into
  /// opts_.metrics, if any. Runs at the end of run, run_until_error and
  /// churn, so the registry is current whenever control is outside.
  void export_metrics();
  /// Push the current (ranks, ownership) into opts_.snapshot_sink (no-op
  /// without one) and restart the publish-cadence clock.
  void publish_snapshot();
  /// `group`'s entries of a global rank vector, in local order, into
  /// `local` (cleared first, so one buffer serves every group).
  void gather_local_ranks(std::uint32_t group, std::span<const double> global_ranks,
                          std::vector<double>& local) const;
  /// Warm-start X: apply every group's Y, computed from its current ranks,
  /// straight to each destination's X (state transfer, not a channel send).
  void prime_afferents();
  /// "Refresh X" of Algorithms 3/4, the one place a slice becomes X: src's
  /// slice goes into dst's X unless dst is opts_.fault_skip_refresh_group
  /// or the poisoned-slice guard rejects it (counted in slices_rejected).
  /// Returns whether the slice reached X.
  bool apply_slice(std::uint32_t src, std::uint32_t dst, const YSlice& slice);
  /// Kill every undelivered slice and retransmit timer and drop the
  /// buffered payloads and pending epochs; accepted epochs survive.
  void discard_in_flight();

  // Y-slice channel, fire-and-forget or reliable.
  void send_slice(std::uint32_t src, std::uint32_t dst, std::shared_ptr<YSlice> payload);
  /// One channel attempt (fresh send or retransmission): counted, loss and
  /// cut drawn, and on survival delivered now or after the delivery delay.
  void transmit(std::uint32_t src, std::uint32_t dst, transport::Epoch epoch,
                std::shared_ptr<YSlice> payload, bool retransmission);
  void deliver(std::uint32_t src, std::uint32_t dst, transport::Epoch epoch,
               const YSlice& slice);
  void schedule_retransmit(std::uint32_t src, std::uint32_t dst,
                           transport::Epoch epoch);
  void on_retransmit_timer(std::uint32_t src, std::uint32_t dst,
                           transport::Epoch epoch);
  void apply_churn(std::span<const std::uint32_t> assignment);
  /// Corruption round-trip at delivery: encode `slice` as a wire frame, let
  /// the fault plane maybe flip bytes, decode + validate into `decoded`.
  /// Returns false (`decoded` untouched) when the frame was quarantined.
  /// Call only while corruption is enabled.
  [[nodiscard]] bool frame_survives(std::uint32_t src, std::uint32_t dst,
                                    transport::Epoch epoch, const YSlice& slice,
                                    YSlice& decoded);

  [[nodiscard]] static std::uint64_t pair_key(std::uint32_t src,
                                              std::uint32_t dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  // Thread-confinement contract (DESIGN.md §9): the engine runs on one
  // simulation thread. The only concurrency is inside PageGroup's rank
  // kernels, which hand `pool_` disjoint index ranges and never touch the
  // members below; P2P_EXTERNALLY_SYNCHRONIZED marks the state whose
  // mutation from a pool worker would be a data race.
  const graph::WebGraph& graph_;
  EngineOptions opts_;
  util::ThreadPool& pool_;
  std::vector<std::unique_ptr<PageGroup>> groups_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::EventQueue queue_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::WaitProcess waits_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::LossModel loss_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::LossModel ack_loss_ P2P_EXTERNALLY_SYNCHRONIZED;
  transport::FaultPlane fault_plane_ P2P_EXTERNALLY_SYNCHRONIZED;
  util::Rng jitter_rng_ P2P_EXTERNALLY_SYNCHRONIZED;
  double latency_jitter_ = 0.0;
  std::optional<transport::ReliableExchange> reliable_ P2P_EXTERNALLY_SYNCHRONIZED;
  /// Buffered newest unacked slice per (src, dst) — shared with in-flight
  /// delivery events so retransmits do not copy the payload.
  std::unordered_map<std::uint64_t, std::shared_ptr<YSlice>> pending_payload_
      P2P_EXTERNALLY_SYNCHRONIZED;
  /// Y-slice buffer per (group, index into its efferent_destinations()),
  /// refilled by each step. A buffer still shared — in flight, buffered
  /// for retransmission or awaiting its ack — is never refilled: the step
  /// takes a fresh one in its place.
  std::vector<std::vector<std::shared_ptr<YSlice>>> outbox_ P2P_EXTERNALLY_SYNCHRONIZED;
  /// The placement build_groups made: page → group and page → local row.
  std::vector<std::uint32_t> page_group_;
  std::vector<std::uint32_t> page_local_;
  /// Wiring generation: bumped by churn; deliveries stamped with an older
  /// generation carry dest-local indices of dead wiring and are dropped.
  std::uint64_t generation_ = 0;
  std::vector<double> reference_;
  double reference_l1_ = 0.0;  // ||reference_||_1, summed once per set_reference
  std::vector<double> prev_sample_ranks_;
  std::vector<char> paused_;
  /// Whether a loop-step event is pending for the group (prevents double
  /// scheduling across resume/churn).
  std::vector<char> active_;
  std::uint32_t nonempty_ = 0;
  /// The events the engine observes itself. Fields other objects own (outer
  /// steps, records per group, reliable-layer and fault-plane counts) stay
  /// 0 here; counters() reads them from their owners.
  EngineCounters tally_;
  /// Outer steps performed by group objects retired in churn rebuilds.
  std::uint64_t retired_outer_steps_ = 0;
  std::vector<std::uint64_t> records_per_group_;
  /// What export_metrics() last added to the registry, in total and per
  /// group index (the per-group part restarts with each churn rebuild).
  EngineCounters exported_;
  std::vector<std::uint64_t> exported_group_steps_;

  // Termination detection (stability_epsilon > 0): per-group latest
  // stability flag as seen by the coordinator, plus scratch for measuring a
  // step's rank change.
  std::vector<char> stable_flag_;
  std::uint32_t stable_count_ = 0;
  double termination_time_ = -1.0;
  /// Next virtual time at which a loop step publishes into snapshot_sink.
  double next_snapshot_ = 0.0;
  /// Per-group view array for publish_snapshot(), reused across publishes
  /// so the per-outer-iteration publish path allocates nothing.
  std::vector<GroupCut> snapshot_cuts_;
  /// Bumped by build_groups() on every membership change; handed to the
  /// snapshot sink so it can keep ownership-derived state across publishes.
  std::uint64_t ownership_version_ = 0;
  std::vector<double> step_scratch_;

  // Full-stack mode: cached overlay hop counts per (src group, dst group).
  std::unordered_map<std::uint64_t, std::uint32_t> hop_cache_;

  // Per-event observations the counters cannot carry (EngineOptions::
  // metrics; DESIGN.md §11): distributions and the latest residual per
  // group. Registry cells are resolved once at construction — std::map
  // nodes are stable — so a step pays one null check. All-null when
  // metrics is off.
  struct ObsHooks {
    util::Log2Histogram* slice_records = nullptr;
    util::Log2Histogram* inner_iterations = nullptr;
    util::LinearHistogram* step_residual = nullptr;
    std::vector<double*> group_residual;
  };
  ObsHooks obs_ P2P_EXTERNALLY_SYNCHRONIZED;

  [[nodiscard]] double delivery_delay(std::uint32_t src, std::uint32_t dst);

  /// Floor on sampled waits: a group whose drawn mean is ~0 would otherwise
  /// flood virtual time with events. (The paper's discrete-time simulation
  /// has an implicit floor of one time unit; ours is finer.)
  static constexpr double kMinWait = 0.1;
};

}  // namespace p2prank::engine
