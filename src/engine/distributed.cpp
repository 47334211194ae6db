#include "engine/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "engine/checkpoint.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace p2prank::engine {

namespace {

/// One-way virtual-time delay of an ack (reliable mode).
constexpr double kAckLatency = 0.1;
/// Sweep cap of DPR1's per-step GroupPageRank solve; inner_epsilon is the
/// stop rule that binds in practice.
constexpr std::size_t kInnerMaxIterations = 500;

}  // namespace

EngineOptions DistributedRanking::validated(EngineOptions o) {
  // Field-naming messages: a chaos harness (or a config file) that produces
  // a bad option should learn *which* knob is bad, not just that one is.
  //
  // Every EngineOptions field must be registered here — either with a range
  // check or, when any value is valid, with an explicit note. tools/p2plint
  // (rule `engine-options-registry`) fails the build when a new field is
  // added without a decision in this function.
  //
  // Unconstrained fields:
  //   algorithm                — every enumerator is a valid algorithm
  //   overlay                  — nullptr = abstract channel; the constructor
  //                              checks num_nodes() >= k for non-null
  //   seed                     — any 64-bit seed
  //   reliable                 — either value: false is the paper's
  //                              fire-and-forget channel, true the whole
  //                              reliable layer (DESIGN.md §8)
  //   fault_skip_refresh_group — any index; UINT32_MAX (default) = off, an
  //                              out-of-range index hits no group
  //   metrics                  — nullptr (default) = metrics off; any
  //                              registry, must outlive the engine
  //   tracer                   — nullptr (default) = tracing off; any
  //                              tracer, must outlive the engine
  //   snapshot_sink            — nullptr (default) = serving off; any sink,
  //                              must outlive the engine (DESIGN.md §12)
  if (!(o.alpha > 0.0 && o.alpha < 1.0)) {
    throw std::invalid_argument("EngineOptions.alpha: must be in (0,1)");
  }
  if (!(o.inner_epsilon > 0.0)) {
    throw std::invalid_argument("EngineOptions.inner_epsilon: must be > 0");
  }
  if (!(o.delivery_probability >= 0.0 && o.delivery_probability <= 1.0)) {
    throw std::invalid_argument(
        "EngineOptions.delivery_probability: must be in [0,1]");
  }
  if (!(o.t1 >= 0.0)) {
    throw std::invalid_argument("EngineOptions.t1: must be >= 0");
  }
  if (!(o.t2 >= o.t1)) {
    throw std::invalid_argument("EngineOptions.t2: must be >= t1");
  }
  if (!(o.delivery_latency >= 0.0)) {
    throw std::invalid_argument("EngineOptions.delivery_latency: must be >= 0");
  }
  if (!(o.latency_jitter >= 0.0)) {
    throw std::invalid_argument("EngineOptions.latency_jitter: must be >= 0");
  }
  if (!(o.per_hop_latency >= 0.0)) {
    throw std::invalid_argument("EngineOptions.per_hop_latency: must be >= 0");
  }
  if (!(o.stability_epsilon >= 0.0)) {
    throw std::invalid_argument("EngineOptions.stability_epsilon: must be >= 0");
  }
  if (!(o.send_threshold >= 0.0)) {
    throw std::invalid_argument("EngineOptions.send_threshold: must be >= 0");
  }
  if (!(o.snapshot_interval > 0.0) || !std::isfinite(o.snapshot_interval)) {
    throw std::invalid_argument(
        "EngineOptions.snapshot_interval: must be > 0 and finite");
  }
  // worklist — ignored, any value is valid: every group sweeps with the
  // exact frontier kernel (DESIGN.md §6). worklist_epsilon must be 0, so a
  // caller asking for the deleted thresholded mode is told instead of
  // silently getting exact mode.
  if (o.worklist_epsilon != 0.0) {
    throw std::invalid_argument(
        "EngineOptions.worklist_epsilon: must be 0 (only exact mode exists)");
  }
  return o;
}

DistributedRanking::DistributedRanking(const graph::WebGraph& g,
                                       std::span<const std::uint32_t> assignment,
                                       std::uint32_t k, const EngineOptions& opts,
                                       util::ThreadPool& pool)
    : graph_(g),
      opts_(validated(opts)),
      pool_(pool),
      waits_(opts_.t1, opts_.t2, k, opts_.seed ^ 0x5851f42d4c957f2dULL),
      loss_(opts_.delivery_probability, opts_.seed ^ 0x14057b7ef767814fULL),
      ack_loss_(opts_.delivery_probability, opts_.seed ^ 0x9e3779b97f4a7c15ULL),
      fault_plane_(opts_.seed ^ 0x94d049bb133111ebULL),
      jitter_rng_(opts_.seed ^ 0xd1b54a32d192ed03ULL),
      latency_jitter_(opts_.latency_jitter) {
  if (assignment.size() != g.num_pages()) {
    throw std::invalid_argument("DistributedRanking: assignment size mismatch");
  }
  if (k == 0) throw std::invalid_argument("DistributedRanking: k == 0");
  if (opts_.overlay != nullptr && opts_.overlay->num_nodes() < k) {
    throw std::invalid_argument(
        "EngineOptions.overlay: fewer overlay nodes than the k ranker groups");
  }
  if (opts_.reliable) reliable_.emplace(opts_.seed ^ 0x2545f4914f6cdd1dULL);

  build_groups(assignment, k);
  init_obs();
  export_metrics();  // registers every counter, so a never-run engine shows zeros

  // --- Kick off every non-empty ranker --------------------------------------
  stable_flag_.assign(k, 0);
  paused_.assign(k, 0);
  active_.assign(k, 0);
  records_per_group_.assign(k, 0);
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    if (groups_[grp]->size() > 0) schedule_step(grp);
  }

  // Serving is live from t = 0: the all-zero cold-start state is the true
  // current state, and publishing it means a reader never finds the store
  // empty once the engine exists (a warm_start republishes immediately).
  publish_snapshot();
}

void DistributedRanking::init_obs() {
  obs::MetricsRegistry* m = opts_.metrics;
  if (m == nullptr) return;
  namespace names = obs::names;
  obs_.slice_records = &m->log2_histogram(names::kEngineSliceRecords);
  obs_.inner_iterations = &m->log2_histogram(names::kEngineInnerIterations);
  // Residuals span ~[1, 1e-16] over a run; bin the log10 so late-
  // convergence structure is visible. -inf (a bit-identical step) clamps
  // into the first bin by the LinearHistogram contract.
  obs_.step_residual =
      &m->linear_histogram(names::kEngineStepResidualLog10, -18.0, 2.0, 40);
  const auto k = static_cast<std::uint32_t>(groups_.size());
  obs_.group_residual.reserve(k);
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    obs_.group_residual.push_back(&m->gauge(names::kEngineGroupResidual, grp));
  }
  exported_group_steps_.assign(k, 0);
}

EngineCounters DistributedRanking::counters() const noexcept {
  EngineCounters c = tally_;
  c.outer_steps = retired_outer_steps_;
  for (const auto& grp : groups_) c.outer_steps += grp->outer_steps();
  for (const std::uint64_t records : records_per_group_) c.records_sent += records;
  if (reliable_) {
    c.duplicates_rejected = reliable_->duplicates_rejected();
    c.suspicions = reliable_->suspicion_events();
    c.zombie_retransmits = reliable_->zombie_retransmits();
  }
  c.partition_drops = fault_plane_.partition_drops();
  c.frames_corrupted = fault_plane_.frames_corrupted();
  return c;
}

void DistributedRanking::export_metrics() {
  obs::MetricsRegistry* m = opts_.metrics;
  if (m == nullptr) return;
  namespace names = obs::names;
  const EngineCounters now = counters();
  const EngineCounters added = now - exported_;
  exported_ = now;
  for (const CounterField& f : kCounterFields) {
    if (!f.metric.empty()) m->counter(f.metric) += added.*f.field;
  }
  // Integer byte counts are exact in a double, so adding them per export
  // gives the same gauge bits as adding them per message.
  m->gauge(names::kEngineDataBytes) += added.data_bytes();
  m->gauge(names::kTransportRetransmitBytes) += added.retransmit_bytes();
  for (std::uint32_t grp = 0; grp < groups_.size(); ++grp) {
    const std::uint64_t steps = groups_[grp]->outer_steps();
    m->counter(names::kEngineGroupOuterSteps, grp) += steps - exported_group_steps_[grp];
    exported_group_steps_[grp] = steps;
  }
}

void DistributedRanking::build_groups(std::span<const std::uint32_t> assignment,
                                      std::uint32_t k) {
  // --- Place every page: its group's members and its local row there -------
  std::vector<std::vector<graph::PageId>> members(k);
  std::vector<std::uint32_t> local_index(graph_.num_pages());
  for (graph::PageId p = 0; p < graph_.num_pages(); ++p) {
    if (assignment[p] >= k) {
      throw std::invalid_argument("DistributedRanking: assignment value >= k");
    }
    auto& group_members = members[assignment[p]];
    local_index[p] = static_cast<std::uint32_t>(group_members.size());
    group_members.push_back(p);  // ascending because p ascends
  }
  // Each group reads its matrix and its cut edges off these two maps, and
  // the engine keeps them to find any page's rank where its group holds it.
  page_group_.assign(assignment.begin(), assignment.end());
  page_local_ = std::move(local_index);
  const rank::PagePlacement placement{page_group_, page_local_};

  groups_.clear();
  groups_.reserve(k);
  nonempty_ = 0;
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    if (!members[grp].empty()) ++nonempty_;
    // A fresh group starts unprimed (its first sweep is dense), which is
    // exactly the frontier-reset rule for churn and graph-update rebuilds.
    groups_.push_back(std::make_unique<PageGroup>(graph_, std::move(members[grp]),
                                                  placement, grp, opts_.alpha));
  }
  outbox_.assign(k, {});
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    outbox_[grp].resize(groups_[grp]->efferent_destinations().size());
  }

  // Every membership change funnels through here (construction, churn);
  // the bump tells snapshot sinks their cached page → shard maps are stale.
  ++ownership_version_;
}

void DistributedRanking::gather_local_ranks(std::uint32_t group,
                                            std::span<const double> global_ranks,
                                            std::vector<double>& local) const {
  const auto members = groups_[group]->members();
  local.clear();
  local.reserve(members.size());
  for (const graph::PageId p : members) local.push_back(global_ranks[p]);
}

void DistributedRanking::prime_afferents() {
  // In a running deployment each ranker's X survives a crawl update — it is
  // received state, not recomputed. Prime it by applying every group's Y
  // (computed from the warm ranks) directly, outside the message accounting
  // (and outside the epoch filter: priming is state transfer, not a channel
  // send).
  YSlice slice;  // one buffer, refilled for every pair
  for (std::uint32_t src = 0; src < groups_.size(); ++src) {
    for (const std::uint32_t dest : groups_[src]->efferent_destinations()) {
      groups_[src]->compute_y(dest, 0.0, slice);
      apply_slice(src, dest, slice);
    }
  }
}

bool DistributedRanking::apply_slice(std::uint32_t src, std::uint32_t dst,
                                     const YSlice& slice) {
  // fault_skip_refresh_group is the chaos harness's deliberately broken
  // ranker: its whole afferent-update path is dead, so its X stays stale
  // and the convergence invariant must catch it. Delivery and priming both
  // come through here, so churn and restore state transfers cannot
  // silently heal it (the --broken self-test depends on the fault
  // surviving every recovery mechanism).
  if (dst == opts_.fault_skip_refresh_group) return false;
  PageGroup& pg = *groups_[dst];
  // Poisoned-slice guard (defense in depth behind the frame codec): a
  // NaN/Inf/negative or misordered payload must never reach refresh_x,
  // where it would propagate through every subsequent sweep, and an index
  // past this group (the last one is the largest) would make refresh_x
  // throw.
  if (!transport::entries_valid(slice.entries) ||
      (!slice.entries.empty() && slice.entries.back().first >= pg.size())) {
    ++tally_.slices_rejected;
    return false;
  }
  pg.refresh_x(src, slice);
  return true;
}

void DistributedRanking::warm_start(std::span<const double> global_ranks) {
  if (global_ranks.size() != graph_.num_pages()) {
    throw std::invalid_argument("DistributedRanking: warm_start size mismatch");
  }
  std::vector<double> local;
  for (std::uint32_t i = 0; i < groups_.size(); ++i) {
    gather_local_ranks(i, global_ranks, local);
    groups_[i]->set_ranks(local);
  }
  prime_afferents();
  // A warm start changes the served state wholesale (initial seeding, churn
  // handoff, restore) — republish instead of waiting out the cadence.
  publish_snapshot();
}

DistributedRanking::WorklistCarrySet DistributedRanking::export_worklist_carry()
    const {
  WorklistCarrySet carry;
  carry.groups.reserve(groups_.size());
  for (const auto& grp : groups_) {
    carry.groups.push_back(grp->export_worklist_carry());
  }
  return carry;
}

void DistributedRanking::warm_start_incremental(
    std::span<const double> global_ranks, WorklistCarrySet carry,
    std::span<const graph::PageId> changed_rows,
    std::span<const graph::PageId> changed_sources) {
  if (global_ranks.size() != graph_.num_pages()) {
    throw std::invalid_argument(
        "DistributedRanking: warm_start_incremental size mismatch");
  }
  // A carry from an engine with a different group count cannot be aligned;
  // treat every group as fallback (degrades to warm_start semantics).
  const bool carry_usable = carry.groups.size() == groups_.size();

  // Bucket the delta's global page ids into per-group local row indices.
  std::vector<std::vector<std::uint32_t>> rows_local(groups_.size());
  std::vector<std::vector<std::uint32_t>> sources_local(groups_.size());
  const auto bucket = [&](std::span<const graph::PageId> pages,
                          std::vector<std::vector<std::uint32_t>>& out) {
    for (const graph::PageId p : pages) {
      out[page_group_.at(p)].push_back(page_local_[p]);
    }
  };
  bucket(changed_rows, rows_local);
  bucket(changed_sources, sources_local);

  // Install ranks + frontier everywhere *before* re-priming X, so
  // refresh_x's forcing-dirty marks land on primed state.
  std::vector<double> local;
  for (std::uint32_t i = 0; i < groups_.size(); ++i) {
    gather_local_ranks(i, global_ranks, local);
    if (carry_usable) {
      groups_[i]->install_worklist_carry(local, std::move(carry.groups[i]),
                                         rows_local[i], sources_local[i]);
    } else {
      groups_[i]->set_ranks(local);
    }
  }
  prime_afferents();
  // Conservative frontier repair: every received X row recomputes next
  // sweep, covering entries the delta-based marks cannot see (bitwise-0.0
  // slice values superseding a nonzero pre-swap X).
  for (auto& grp : groups_) grp->mark_all_received_dirty();
  publish_snapshot();
}

void DistributedRanking::pause_group(std::uint32_t group) {
  paused_.at(group) = 1;
}

void DistributedRanking::resume_group(std::uint32_t group) {
  if (paused_.at(group) == 0) return;
  paused_[group] = 0;
  // Only schedule when no step event is already queued (a pause/resume
  // inside one wait interval must not double-clock the group).
  if (groups_[group]->size() > 0 && active_[group] == 0) schedule_step(group);
}

bool DistributedRanking::is_paused(std::uint32_t group) const {
  return paused_.at(group) != 0;
}

void DistributedRanking::crash_group(std::uint32_t group) {
  PageGroup& pg = *groups_.at(group);
  if (pg.size() == 0) return;  // nothing to lose, nothing scheduled
  pg.reset_state();
  // The wiped X voids every peer's delta baseline toward this group: kept,
  // an entry that then moves less than send_threshold is never re-sent.
  for (std::uint32_t peer = 0; peer < groups_.size(); ++peer) {
    if (peer != group) groups_[peer]->forget_sent(group);
  }
  if (reliable_) {
    // The crashed ranker's transmit buffers die with its memory; the
    // per-pair epochs are transport-session state and survive (peers keep
    // rejecting stale slices and keep retransmitting *to* it).
    reliable_->reset_sender(group);
    // p2plint: allow(no-unordered-iteration): predicate erase; no
    // accumulation, surviving entries are untouched.
    for (auto it = pending_payload_.begin(); it != pending_payload_.end();) {
      if (static_cast<std::uint32_t>(it->first >> 32) == group) {
        it = pending_payload_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A rebooted ranker starts unstable until it reports otherwise.
  if (stable_flag_[group] != 0) {
    stable_flag_[group] = 0;
    --stable_count_;
  }
  // Deliberately no (re)scheduling: a running group's next step is already
  // queued and simply finds empty state; a paused group stays paused until
  // resume_group (crash-while-down semantics).
}

void DistributedRanking::discard_in_flight() {
  // The generation stamp kills undelivered slice events and retransmit
  // timers; the buffered payloads and pending-epoch records go with them.
  ++generation_;
  pending_payload_.clear();
  if (reliable_) reliable_->reset_pending();
}

void DistributedRanking::drop_in_flight() {
  // Delivered slices are already in X and stay (a restore's crash wave
  // resets it anyway). Accepted-epoch high-water marks survive: the channel
  // session outlives a rollback just like it outlives a crash.
  discard_in_flight();
  // A restore is a global rollback for the serving layer too: every epoch
  // published from the rolled-back timeline is stale. The sink keeps
  // serving it (availability over freshness) until the restore's
  // warm_start republishes.
  if (opts_.snapshot_sink != nullptr) {
    opts_.snapshot_sink->invalidate(queue_.now());
  }
}

void DistributedRanking::apply_churn(std::span<const std::uint32_t> assignment) {
  // Hand the rank state through the checkpoint text format — the exact
  // state-transfer path a real ranker handoff would ship over the wire —
  // then rebuild the cut-edge wiring for the new ownership and warm-start.
  // The format stores full double precision, so a consistent
  // (sub-fixed-point) state round-trips exactly and Thm 4.1/4.2 survive.
  std::ostringstream text;
  save_ranks(graph_, global_ranks(), text);

  // The per-group step tallies retire with their groups: export them first.
  export_metrics();
  for (const auto& grp : groups_) retired_outer_steps_ += grp->outer_steps();
  build_groups(assignment, num_groups());
  std::fill(exported_group_steps_.begin(), exported_group_steps_.end(), 0);

  std::istringstream in(text.str());
  const LoadedRanks loaded = load_ranks(graph_, in);
  warm_start(loaded.ranks);

  // In-flight slices and retransmit timers reference the *old* wiring's
  // local indices: invalidate them wholesale. Epoch counters survive
  // (transport-session state), so "accepted epoch non-decreasing" holds
  // across churn.
  discard_in_flight();

  // Every ranker re-reports stability against the new ownership.
  std::fill(stable_flag_.begin(), stable_flag_.end(), 0);
  stable_count_ = 0;

  ++tally_.churn_events;
  if (opts_.tracer != nullptr) {
    opts_.tracer->instant(obs::names::kTraceChurn, queue_.now());
  }
  for (std::uint32_t grp = 0; grp < groups_.size(); ++grp) {
    if (groups_[grp]->size() > 0 && paused_[grp] == 0 && active_[grp] == 0) {
      schedule_step(grp);
    }
  }
  export_metrics();
}

void DistributedRanking::leave_group(std::uint32_t group, std::uint32_t successor) {
  if (group >= groups_.size() || successor >= groups_.size()) {
    throw std::out_of_range("DistributedRanking::leave_group: group out of range");
  }
  if (successor == group) {
    throw std::invalid_argument(
        "DistributedRanking::leave_group: successor == departing group");
  }
  if (groups_[group]->size() == 0) {
    throw std::invalid_argument(
        "DistributedRanking::leave_group: departing group owns no pages");
  }
  std::vector<std::uint32_t> assignment = current_assignment();
  for (auto& a : assignment) {
    if (a == group) a = successor;
  }
  // The chaos harness's deliberately-broken ranker follows its pages: if the
  // faulty group departs, the successor inherits the fault, so a --broken
  // self-test stays broken across churn.
  if (opts_.fault_skip_refresh_group == group) {
    opts_.fault_skip_refresh_group = successor;
  }
  apply_churn(assignment);
}

void DistributedRanking::join_group(std::uint32_t group, std::uint32_t donor) {
  if (group >= groups_.size() || donor >= groups_.size()) {
    throw std::out_of_range("DistributedRanking::join_group: group out of range");
  }
  if (donor == group) {
    throw std::invalid_argument("DistributedRanking::join_group: donor == group");
  }
  if (groups_[group]->size() != 0) {
    throw std::invalid_argument(
        "DistributedRanking::join_group: joining group already owns pages");
  }
  const auto donor_members = groups_[donor]->members();
  if (donor_members.size() < 2) {
    throw std::invalid_argument(
        "DistributedRanking::join_group: donor has fewer than two pages");
  }
  std::vector<std::uint32_t> assignment = current_assignment();
  // The joiner takes the upper half of the donor's (ascending) key range —
  // the successor-split a structured overlay performs on node arrival.
  const std::size_t keep = (donor_members.size() + 1) / 2;
  for (std::size_t i = keep; i < donor_members.size(); ++i) {
    assignment[donor_members[i]] = group;
  }
  apply_churn(assignment);
}

void DistributedRanking::set_latency_jitter(double jitter) {
  if (!(jitter >= 0.0)) {
    throw std::invalid_argument("DistributedRanking: latency_jitter must be >= 0");
  }
  latency_jitter_ = jitter;
}

double DistributedRanking::delivery_delay(std::uint32_t src, std::uint32_t dst) {
  double delay = opts_.delivery_latency;
  if (opts_.overlay != nullptr) {
    // Indirect transmission: one overlay hop per per_hop_latency. Routes are
    // static in the stabilized overlay, so hop counts are cached.
    const std::uint64_t key = pair_key(src, dst);
    auto it = hop_cache_.find(key);
    if (it == hop_cache_.end()) {
      const auto path = opts_.overlay->route(src, opts_.overlay->id_of(dst));
      it = hop_cache_.emplace(key, static_cast<std::uint32_t>(path.size())).first;
    }
    delay = opts_.per_hop_latency * static_cast<double>(it->second);
  }
  // One jitter draw per delivered message, and only when jitter is on — the
  // jitter-off RNG streams are bit-identical to the pre-jitter engine.
  if (latency_jitter_ > 0.0) delay += jitter_rng_.uniform(0.0, latency_jitter_);
  return delay;
}

void DistributedRanking::schedule_step(std::uint32_t group) {
  active_[group] = 1;
  const double wait = std::max(kMinWait, waits_.next_wait(group));
  queue_.schedule_in(wait, [this, group] { run_step(group); });
}

void DistributedRanking::send_slice(std::uint32_t src, std::uint32_t dst,
                                    std::shared_ptr<YSlice> payload) {
  records_per_group_[src] += payload->record_count;
  if (obs_.slice_records != nullptr) obs_.slice_records->add(payload->record_count);
  // Reliable exchange: stamp an epoch and buffer the payload for
  // retransmission (a fresh send supersedes the pair's previous unacked
  // slice — the buffer holds at most one slice per peer). Sends to a
  // suspected peer still go out: they double as probes. The paper's
  // fire-and-forget channel ships epoch 0 and buffers nothing.
  const transport::Epoch epoch = reliable_ ? reliable_->begin_send(src, dst) : 0;
  if (opts_.reliable) pending_payload_[pair_key(src, dst)] = payload;
  transmit(src, dst, epoch, std::move(payload), /*retransmission=*/false);
  if (opts_.reliable) schedule_retransmit(src, dst, epoch);
}

void DistributedRanking::transmit(std::uint32_t src, std::uint32_t dst,
                                  transport::Epoch epoch,
                                  std::shared_ptr<YSlice> payload,
                                  bool retransmission) {
  ++tally_.messages_sent;
  // One loss draw per attempt, always first, and the cut draw always after
  // it (no short-circuit): the fault plane draws from its own RNG and only
  // while a cut is active, so the loss stream never shifts.
  const bool pass_loss = loss_.delivered();
  const bool pass_cut = fault_plane_.deliver(src, dst);
  if (!pass_loss || !pass_cut) {
    ++tally_.messages_lost;
    return;
  }
  const double delay = delivery_delay(src, dst);
  const std::uint64_t records = payload->record_count;
  if (opts_.overlay != nullptr && !retransmission) {
    tally_.record_hops += records * hop_cache_[pair_key(src, dst)];
  }
  if (opts_.tracer != nullptr) {
    opts_.tracer->complete(
        retransmission ? obs::names::kTraceRetransmit : obs::names::kTraceMsgFlight,
        queue_.now(), delay, dst, {}, static_cast<double>(records));
  }
  // The slice is delivered when the event fires — unless churn rebuilt the
  // wiring meanwhile (its local indices would be stale, so it is dropped;
  // the sender's next step or retransmit timer repairs the loss). It is
  // read in place: the retransmit buffer may share the payload.
  const std::uint64_t gen = generation_;
  auto arrive = [this, src, dst, epoch, payload = std::move(payload), gen] {
    if (gen != generation_) return;
    deliver(src, dst, epoch, *payload);
  };
  if (delay <= 0.0) {
    arrive();
  } else {
    queue_.schedule_in(delay, std::move(arrive));
  }
}

void DistributedRanking::deliver(std::uint32_t src, std::uint32_t dst,
                                 transport::Epoch epoch, const YSlice& slice) {
  // Transport-level processing at delivery time: runs even when dst's
  // application loop is paused (the protocol stack stays up; only the
  // ranker sleeps) and even when dst crashed meanwhile (a reboot does not
  // reset the channel). No slice lands while dst steps: deliveries run in
  // other groups' steps, arrival events and retransmit timers.
  //
  // Corruption defense first: a quarantined frame is garbage — the receiver
  // cannot trust its addressing or epoch, so it is dropped before any
  // protocol processing (no liveness evidence, no epoch accept, no ack;
  // the sender's retransmit timer re-ships it). A surviving frame's
  // decoded slice is what gets applied.
  YSlice decoded;
  const bool framed = fault_plane_.corruption_enabled();
  if (framed && !frame_survives(src, dst, epoch, slice, decoded)) return;
  const YSlice& received = framed ? decoded : slice;
  // Receiving data from src is evidence src is alive: clear any suspicion
  // on the reverse pair and, if a retransmit was parked there, re-arm it.
  if (reliable_ && reliable_->peer_alive(dst, src)) {
    schedule_retransmit(dst, src, reliable_->pending_epoch(dst, src));
  }
  // A stale epoch is counted by the filter itself (duplicates_rejected).
  if (!reliable_ || reliable_->accept(src, dst, epoch)) {
    ++tally_.deliveries;
    // Without acks, the slice reaching X is the only delivery knowledge a
    // thresholded sender gets, so it commits here: a slice lost, cut,
    // quarantined, refused by the guard or dropped by churn stays pending
    // and rides the next send. (With the reliable layer it commits on ack.)
    if (apply_slice(src, dst, received) && !reliable_ && opts_.send_threshold > 0.0) {
      groups_[src]->commit_sent(dst, received);
    }
  }
  if (!reliable_) return;
  // Ack even a rejected duplicate — the ack is cumulative (it carries the
  // receiver's accept high-water mark), so it also repairs a lost earlier
  // ack. Acks ride their own lossy channel.
  ++tally_.acks_sent;
  const bool ack_pass_loss = ack_loss_.delivered();
  // The ack crosses the cut in the reverse direction (dst → src), so an
  // asymmetric partition can pass data one way and starve the acks. A cut
  // ack counts in partition_drops but not in messages_lost.
  const bool ack_pass_cut = fault_plane_.deliver(dst, src);
  if (!ack_pass_loss || !ack_pass_cut) return;
  const transport::Epoch value = reliable_->accepted_epoch(src, dst);
  queue_.schedule_in(kAckLatency, [this, src, dst, value] {
    ++tally_.acks_delivered;
    if (reliable_->on_ack(src, dst, value)) {
      // Cleared the pending epoch: the buffered payload is now known
      // delivered — commit it for delta-sending and drop it.
      const auto it = pending_payload_.find(pair_key(src, dst));
      if (it != pending_payload_.end()) {
        if (opts_.send_threshold > 0.0) {
          groups_[src]->commit_sent(dst, *it->second);
        }
        pending_payload_.erase(it);
      }
    }
  });
}

bool DistributedRanking::frame_survives(std::uint32_t src, std::uint32_t dst,
                                        transport::Epoch epoch, const YSlice& slice,
                                        YSlice& decoded) {
  // While corruption is live, every slice pays the encode → (maybe flip
  // bytes) → decode round-trip, so the defense is exercised on clean frames
  // too — a codec that mangled valid payloads would corrupt ranks and trip
  // the finiteness/monotone invariants immediately.
  const transport::FrameHeader header{src, dst, epoch, slice.record_count};
  auto frame = transport::encode_frame(header, slice.entries);
  const bool corrupted = fault_plane_.maybe_corrupt(frame);
  transport::DecodedFrame out;
  const auto verdict = transport::decode_frame(frame, out);
  if (verdict != transport::FrameVerdict::kOk) {
    ++tally_.frames_quarantined;
    return false;
  }
  if (corrupted || out.header.src != src || out.header.dst != dst ||
      out.header.epoch != epoch) {
    // A corrupted frame passed the 64-bit checksum — collision odds are
    // negligible, so this tripwire staying 0 is an invariant the chaos
    // checker enforces ("zero applied corrupt frames").
    ++tally_.corrupt_frames_applied;
  }
  decoded.record_count = out.header.record_count;
  decoded.entries = std::move(out.entries);
  return true;
}

bool DistributedRanking::has_cut_edges(std::uint32_t src,
                                       std::uint32_t dst) const {
  const auto dests = groups_.at(src)->efferent_destinations();
  return std::find(dests.begin(), dests.end(), dst) != dests.end();
}

void DistributedRanking::schedule_retransmit(std::uint32_t src, std::uint32_t dst,
                                             transport::Epoch epoch) {
  const double delay = reliable_->timer_delay(src, dst);
  const std::uint64_t gen = generation_;
  queue_.schedule_in(delay, [this, src, dst, epoch, gen] {
    // Timers armed before a churn rebuild reference retired payloads.
    if (gen != generation_) return;
    on_retransmit_timer(src, dst, epoch);
  });
}

void DistributedRanking::on_retransmit_timer(std::uint32_t src, std::uint32_t dst,
                                             transport::Epoch epoch) {
  switch (reliable_->on_timer(src, dst, epoch)) {
    case transport::ReliableExchange::TimerVerdict::kSuperseded:
    case transport::ReliableExchange::TimerVerdict::kAcked:
    case transport::ReliableExchange::TimerVerdict::kParked:
      return;  // timer is dead; a newer send or an ack owns the pair now
    case transport::ReliableExchange::TimerVerdict::kSuspectNow:
      // Failure detection tripped: retransmits to dst park (fresh sends
      // still probe it). The peer's last contribution to our X stays in
      // force, which keeps Thm 4.1 monotonicity through a suspicion.
      return;
    case transport::ReliableExchange::TimerVerdict::kRetransmit:
      break;
  }
  const auto it = pending_payload_.find(pair_key(src, dst));
  if (it == pending_payload_.end()) return;  // crash dropped the buffer
  ++tally_.retransmissions;
  // Accounting fix: a retransmit re-ships the *same* logical records, so it
  // must not inflate records_sent / records_per_group_ / record_hops —
  // those feed the §4.5 cost model's W and h·l·W, which price logical
  // records, not channel attempts. (It used to, overstating the cost model
  // by exactly the loss-driven retransmit rate.) Re-shipped records and
  // their wire bytes are tallied apart as overhead.
  tally_.retransmit_records += it->second->record_count;
  // By value: an immediate delivery's ack may erase the buffer entry.
  transmit(src, dst, epoch, it->second, /*retransmission=*/true);
  schedule_retransmit(src, dst, epoch);
}

void DistributedRanking::run_step(std::uint32_t group) {
  active_[group] = 0;
  if (paused_[group]) return;  // suspended: no work, no reschedule
  PageGroup& pg = *groups_[group];
  if (pg.size() == 0) return;  // departed in churn while this event was queued

  // X already holds the newest slice per source: each was applied on
  // delivery, in arrival order (with epochs on, stale reordered slices are
  // never applied).
  const bool detect = opts_.stability_epsilon > 0.0;
  const bool dpr1 = opts_.algorithm == Algorithm::kDPR1;
  // Observability also wants the per-step residual; measuring it never
  // feeds back into the algorithm, so turning metrics on cannot change
  // results — only add the measurement cost.
  const bool want_residual =
      detect || obs_.step_residual != nullptr || opts_.tracer != nullptr;
  // DPR2's single sweep reports its own fused residual, so only DPR1's
  // multi-sweep solve needs a before-snapshot to measure the step delta.
  if (want_residual && dpr1) {
    const auto r = pg.ranks();
    step_scratch_.assign(r.begin(), r.end());
  }

  // Compute R.
  std::size_t sweeps = 1;
  if (dpr1) {
    sweeps = pg.solve_to_convergence(opts_.inner_epsilon, kInnerMaxIterations, pool_);
    if (obs_.inner_iterations != nullptr) obs_.inner_iterations->add(sweeps);
  } else {
    pg.sweep_once(pool_);
  }
  tally_.inner_sweeps += sweeps;
  pg.count_outer_step();

  if (want_residual) {
    const double delta = dpr1 ? util::l1_distance(pg.ranks(), step_scratch_)
                              : pg.last_sweep_delta();
    if (obs_.step_residual != nullptr) {
      obs_.step_residual->add(std::log10(delta));
      *obs_.group_residual[group] = delta;
    }
    if (opts_.tracer != nullptr) {
      opts_.tracer->instant(obs::names::kTraceStep, queue_.now(), group, {}, delta);
    }
    if (detect) {
      // Report this step's stability to the coordinator (reliable control
      // message; the simulator applies it immediately).
      const bool stable = delta <= opts_.stability_epsilon;
      ++tally_.status_messages;
      if (stable != (stable_flag_[group] != 0)) {
        stable_flag_[group] = stable ? 1 : 0;
        stable_count_ += stable ? 1 : -1;
      }
      if (!termination_detected() && stable_count_ == nonempty_) {
        termination_time_ = queue_.now();
      }
    }
  }

  // Compute Y for every group we have cut edges into, then send each in
  // destination order. A delivery writes only its receiver (and a commit
  // only its own destination's block), so computing every slice first
  // reads the same R and the same last-sent values as interleaving would.
  const auto dests = pg.efferent_destinations();
  auto& outbox = outbox_[group];
  for (std::size_t i = 0; i < dests.size(); ++i) {
    std::shared_ptr<YSlice>& buffer = outbox[i];
    // Refill a buffer only while the outbox holds its only reference: an
    // arrival event, the retransmit buffer or a pending ack may still read
    // the slice it holds.
    if (buffer == nullptr || buffer.use_count() != 1) {
      buffer = std::make_shared<YSlice>();
    }
    pg.compute_y(dests[i], opts_.send_threshold, *buffer);
  }
  for (std::size_t i = 0; i < dests.size(); ++i) {
    if (opts_.send_threshold > 0.0 && outbox[i]->entries.empty()) {
      continue;  // nothing moved enough to be worth a message
    }
    send_slice(group, dests[i], outbox[i]);
  }

  // Publish-at-iteration-boundary (DESIGN.md §12): loop-step boundaries are
  // the engine's consistent cut points, and they happen at deterministic
  // event times — so the published epoch sequence is bitwise-identical
  // across pool sizes, like every other result.
  if (opts_.snapshot_sink != nullptr && queue_.now() + 1e-12 >= next_snapshot_) {
    publish_snapshot();
  }

  schedule_step(group);
}

void DistributedRanking::publish_snapshot() {
  if (opts_.snapshot_sink == nullptr) return;
  // Hand the sink each group's (members, ranks) view directly: the sink
  // scatters into its own storage exactly once and the engine gathers
  // nothing — publishing a 50k-page snapshot costs one streaming pass,
  // which is what keeps it inside the serving layer's overhead budget.
  // The views die when the call returns (RankSnapshotSink contract).
  snapshot_cuts_.clear();
  snapshot_cuts_.reserve(groups_.size());
  for (const auto& g : groups_) {
    snapshot_cuts_.push_back(GroupCut{g->members(), g->ranks()});
  }
  opts_.snapshot_sink->publish_groups(
      queue_.now(), snapshot_cuts_,
      static_cast<std::uint32_t>(graph_.num_pages()), ownership_version_);
  next_snapshot_ = queue_.now() + opts_.snapshot_interval;
  if (opts_.tracer != nullptr) {
    opts_.tracer->instant(obs::names::kTraceSnapshot, queue_.now(), 0, {},
                          static_cast<double>(num_groups()));
  }
}

void DistributedRanking::set_reference(std::vector<double> reference) {
  if (reference.size() != graph_.num_pages()) {
    throw std::invalid_argument("DistributedRanking: reference size mismatch");
  }
  reference_ = std::move(reference);
  reference_l1_ = util::l1_norm(reference_);
}

std::vector<double> DistributedRanking::global_ranks() const {
  std::vector<double> ranks(graph_.num_pages(), 0.0);
  for (const auto& grp : groups_) {
    const auto members = grp->members();
    const auto local = grp->ranks();
    for (std::size_t i = 0; i < members.size(); ++i) ranks[members[i]] = local[i];
  }
  return ranks;
}

double DistributedRanking::relative_error_now() const {
  if (reference_.empty()) {
    throw std::logic_error("DistributedRanking: reference not set");
  }
  // util::l1_distance's sum (page order, long double) with each page's
  // rank read where its group holds it, then util::relative_error's ratio.
  std::vector<const double*> ranks(groups_.size());
  for (std::size_t grp = 0; grp < groups_.size(); ++grp) {
    ranks[grp] = groups_[grp]->ranks().data();
  }
  long double acc = 0.0L;
  for (std::size_t p = 0; p < reference_.size(); ++p) {
    acc += std::fabs(ranks[page_group_[p]][page_local_[p]] - reference_[p]);
  }
  const auto l1 = static_cast<double>(acc);
  if (reference_l1_ == 0.0) {
    return l1 == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return l1 / reference_l1_;
}

std::vector<std::uint64_t> DistributedRanking::outer_steps_per_group() const {
  std::vector<std::uint64_t> steps;
  steps.reserve(groups_.size());
  for (const auto& grp : groups_) steps.push_back(grp->outer_steps());
  return steps;
}

double DistributedRanking::mean_outer_steps() const noexcept {
  if (nonempty_ == 0) return 0.0;
  return static_cast<double>(counters().outer_steps) / static_cast<double>(nonempty_);
}

std::vector<Sample> DistributedRanking::run(double t_end, double sample_interval) {
  if (reference_.empty()) {
    throw std::logic_error("DistributedRanking: reference not set");
  }
  if (sample_interval <= 0.0) {
    throw std::invalid_argument("DistributedRanking: sample_interval must be > 0");
  }
  std::vector<Sample> samples;
  if (prev_sample_ranks_.empty()) prev_sample_ranks_ = global_ranks();

  for (double t = queue_.now() + sample_interval; t <= t_end + 1e-12;
       t += sample_interval) {
    queue_.run_until(t);
    Sample s;
    s.time = t;
    const auto ranks = global_ranks();
    s.relative_error = util::relative_error(ranks, reference_, reference_l1_);
    s.average_rank = ranks.empty() ? 0.0
                                   : util::accurate_sum(ranks) /
                                         static_cast<double>(ranks.size());
    double min_delta = 0.0;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      min_delta = std::min(min_delta, ranks[i] - prev_sample_ranks_[i]);
    }
    s.min_rank_delta = min_delta;
    s.total_outer_steps = counters().outer_steps;
    prev_sample_ranks_ = ranks;
    samples.push_back(s);
  }
  export_metrics();
  return samples;
}

ConvergenceResult DistributedRanking::run_until_error(double threshold,
                                                      double max_time,
                                                      double check_interval) {
  if (reference_.empty()) {
    throw std::logic_error("DistributedRanking: reference not set");
  }
  double err = relative_error_now();
  double t = queue_.now();
  while (err > threshold && t < max_time) {
    t = std::min(t + check_interval, max_time);
    queue_.run_until(t);
    err = relative_error_now();
  }
  ConvergenceResult result;
  static_cast<EngineCounters&>(result) = counters();
  result.reached = err <= threshold;
  result.time = t;
  result.mean_outer_steps = mean_outer_steps();
  result.final_relative_error = err;
  export_metrics();
  return result;
}

}  // namespace p2prank::engine
