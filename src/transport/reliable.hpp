// Reliable score exchange: the per-pair bookkeeping that turns the engine's
// fire-and-forget Y channel into an ordered, acknowledged one.
//
// The paper's DPR1/DPR2 merely *tolerate* loss (Section 5's p sweeps show
// convergence slowing as messages vanish) and silently assume in-order
// delivery. A deployment needs more: once delivery latency jitters, a
// delayed older Y slice can arrive after — and overwrite — a newer one, and
// a lost slice is only repaired at the sender's next full loop step (mean
// wait up to T2). This layer supplies the three missing pieces, kept
// payload-agnostic so the transport library stays independent of the
// engine's YSlice type (the engine owns the payload buffers; this class
// owns epochs, timers' verdicts, and suspicion):
//
//  * Epochs. Every send on an ordered pair (src, dst) is stamped with a
//    per-pair monotone epoch. The receiver accepts a slice iff its epoch
//    exceeds the pair's high-water mark, so reordered stale slices are
//    rejected instead of clobbering newer X entries. Epochs are a property
//    of the *transport session*: they survive ranker crashes and churn
//    rebuilds (a crash wipes application state, not the channel's sequence
//    numbers), which keeps "accepted epoch per pair is non-decreasing" an
//    unconditional machine-checkable invariant.
//
//  * Ack / retransmit. Each pair holds at most one unacked epoch — a newer
//    send supersedes the older (the superseded payload is dropped by the
//    caller, so the retransmit buffer is O(1) per peer, O(K) per ranker).
//    Acks are cumulative: an ack for epoch e clears any pending epoch <= e.
//    Retransmit timers back off exponentially (RTO 1, doubling per
//    retransmission) with multiplicative jitter U[1, 1.25) so
//    retransmissions from many pairs do not synchronize. The schedule is
//    fixed: the 4th expired timer suspects the peer before a 4th doubling
//    could happen, so the RTO never exceeds 8 and needs no cap.
//
//  * Failure detection. 4 expired timers without an intervening ack mark
//    the peer suspected; further retransmits for the pair are parked
//    (fresh sends still go out and double as probes). A timer whose epoch
//    was superseded by a newer fresh send still counts a strike when that
//    epoch was never acked — otherwise a sender whose loop interval
//    undercuts the rto would supersede every pending epoch before its timer
//    fired and a hard partition could never trip suspicion. Any
//    evidence of life — an ack, or data received *from* the peer — clears
//    suspicion and resets the backoff, so a rebooted or un-partitioned peer
//    resumes promptly. Data and ack traffic double as heartbeats: every ranker
//    loop step ships a Y slice to each efferent peer, so a healthy pair is
//    never silent for longer than one step interval.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace p2prank::transport {

/// Per-pair send sequence number. 0 is reserved for "nothing yet".
using Epoch = std::uint64_t;

class ReliableExchange {
 public:
  /// What the caller should do when a retransmit timer fires.
  enum class TimerVerdict {
    kRetransmit,  ///< still pending: re-send the buffered payload, re-arm
    kSuperseded,  ///< a newer epoch replaced this one: timer is dead
    kAcked,       ///< the epoch was acked meanwhile: timer is dead
    kSuspectNow,  ///< this strike crossed the threshold: peer now suspected,
                  ///< park retransmits
    kParked,      ///< already suspected: keep parked
  };

  /// `seed` drives the timer jitter draws.
  explicit ReliableExchange(std::uint64_t seed) : rng_(seed) {}

  // --- Sender side ---------------------------------------------------------

  /// Stamp a fresh send on (src, dst): assigns the next epoch and makes it
  /// the pair's (single) pending epoch, superseding any older one. The
  /// caller replaces its buffered payload accordingly.
  [[nodiscard]] Epoch begin_send(std::uint32_t src, std::uint32_t dst);

  /// Delay until the pending epoch's next retransmit check: current RTO
  /// with a fresh jitter draw. Call once per (re)send to arm the timer.
  [[nodiscard]] double timer_delay(std::uint32_t src, std::uint32_t dst);

  /// A retransmit timer armed for `epoch` fired. On kRetransmit the attempt
  /// counter and backoff advance; on kSuspectNow the pair is marked
  /// suspected (counted in suspicion_events()). A superseded-but-unacked
  /// epoch's timer counts a strike (possibly returning kSuspectNow) without
  /// advancing the backoff — the newer epoch's timer chain owns that.
  [[nodiscard]] TimerVerdict on_timer(std::uint32_t src, std::uint32_t dst,
                                      Epoch epoch);

  /// Cumulative ack for (src, dst) arrived: every epoch <= `value` is
  /// delivered. Clears suspicion (definite evidence of life) and resets the
  /// backoff. Returns true when this cleared the pending epoch — the caller
  /// drops its buffered payload.
  bool on_ack(std::uint32_t src, std::uint32_t dst, Epoch value);

  /// Evidence that `peer` is alive reached `observer` outside the ack path
  /// (typically: observer received a data slice from peer). Clears
  /// suspicion and resets backoff on (observer -> peer). Returns true when
  /// the pair was suspected AND still has a pending epoch — the caller
  /// should re-arm a retransmit for it.
  bool peer_alive(std::uint32_t observer, std::uint32_t peer);

  [[nodiscard]] bool suspected(std::uint32_t src, std::uint32_t dst) const;
  [[nodiscard]] Epoch pending_epoch(std::uint32_t src, std::uint32_t dst) const;

  /// Drop every pending epoch and reset backoff/suspicion, keeping the
  /// epoch counters (churn rebuilt the payload wiring; buffered slices
  /// reference dead local indices and must not be retransmitted).
  void reset_pending();
  /// Same, but only for pairs where `src` is the sender (src crashed: its
  /// in-memory transmit buffers are gone; the channel's sequence numbers
  /// are not).
  void reset_sender(std::uint32_t src);

  // --- Receiver side -------------------------------------------------------

  /// Epoch filter: accept iff `epoch` exceeds the pair's high-water mark
  /// (then advances it). A rejection is counted in duplicates_rejected().
  bool accept(std::uint32_t src, std::uint32_t dst, Epoch epoch);

  /// Receiver high-water mark — the value a cumulative ack carries.
  [[nodiscard]] Epoch accepted_epoch(std::uint32_t src, std::uint32_t dst) const;

  // --- Counters ------------------------------------------------------------

  [[nodiscard]] std::uint64_t duplicates_rejected() const noexcept {
    return duplicates_rejected_;
  }
  /// Timers that found their epoch pending yet already acked — impossible
  /// by construction (an ack clears the pending epoch), so any nonzero
  /// value is a regression tripwire the invariant checker asserts on.
  [[nodiscard]] std::uint64_t zombie_retransmits() const noexcept {
    return zombie_retransmits_;
  }
  [[nodiscard]] std::uint64_t suspicion_events() const noexcept {
    return suspicion_events_;
  }
  [[nodiscard]] std::uint32_t suspected_pairs() const noexcept {
    return suspected_pairs_;
  }

 private:
  struct PairState {
    Epoch next_epoch = 1;     // sender: next epoch to assign
    Epoch pending = 0;        // sender: unacked epoch (0 = none)
    Epoch acked = 0;          // sender: cumulative ack high-water mark
    Epoch accepted = 0;       // receiver: accept high-water mark
    double rto = 0.0;         // current timeout (0 = never sent)
    std::uint32_t attempts = 0;
    bool suspected = false;
  };

  static std::uint64_t key(std::uint32_t src, std::uint32_t dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  PairState& state(std::uint32_t src, std::uint32_t dst);
  [[nodiscard]] const PairState* find(std::uint32_t src, std::uint32_t dst) const;
  void clear_suspicion(PairState& st);
  void reset_transient(PairState& st);

  // Thread-confinement contract (DESIGN.md §9): a ReliableExchange belongs
  // to the simulation thread that owns the engine driving it. Nothing here
  // is locked; every mutable member below declares that explicitly. The
  // ThreadPool's fork-join workers must never be handed a reference.
  util::Rng rng_ P2P_EXTERNALLY_SYNCHRONIZED;  // jitter draws advance state
  std::unordered_map<std::uint64_t, PairState> pairs_ P2P_EXTERNALLY_SYNCHRONIZED;
  std::uint64_t duplicates_rejected_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
  std::uint64_t zombie_retransmits_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
  std::uint64_t suspicion_events_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
  std::uint32_t suspected_pairs_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
};

}  // namespace p2prank::transport
