#include "transport/reliable.hpp"

#include <algorithm>

namespace p2prank::transport {

namespace {

// The fixed timer schedule (DESIGN.md §8): delay = rto · U[1, 1 + jitter),
// rto starting at 1 and doubling per retransmission. The RTO doubles only
// on kRetransmit, which needs fewer than kSuspicionAfter strikes, so it
// peaks at 1 · 2³ = 8 before the pair is suspected.
constexpr double kRtoInitial = 1.0;
constexpr double kRtoBackoff = 2.0;
constexpr double kRtoJitter = 0.25;
constexpr std::uint32_t kSuspicionAfter = 4;

}  // namespace

ReliableExchange::PairState& ReliableExchange::state(std::uint32_t src,
                                                     std::uint32_t dst) {
  return pairs_[key(src, dst)];
}

const ReliableExchange::PairState* ReliableExchange::find(std::uint32_t src,
                                                          std::uint32_t dst) const {
  const auto it = pairs_.find(key(src, dst));
  return it == pairs_.end() ? nullptr : &it->second;
}

void ReliableExchange::clear_suspicion(PairState& st) {
  if (st.suspected) {
    st.suspected = false;
    --suspected_pairs_;
  }
  st.attempts = 0;
  st.rto = kRtoInitial;
}

void ReliableExchange::reset_transient(PairState& st) {
  st.pending = 0;
  clear_suspicion(st);
}

Epoch ReliableExchange::begin_send(std::uint32_t src, std::uint32_t dst) {
  PairState& st = state(src, dst);
  const Epoch epoch = st.next_epoch++;
  if (st.pending == 0) {
    // Healthy pair (nothing outstanding): start from a fresh backoff.
    st.attempts = 0;
    st.rto = kRtoInitial;
  }
  // A prior epoch is still unacked: keep the backed-off rto and strike
  // count. Resetting here let every fresh send restart the timer at
  // the initial RTO, so a long partition produced an unbounded retransmit
  // storm at the minimum interval and suspicion could never trip.
  st.pending = epoch;  // supersedes any older unacked epoch
  return epoch;
}

double ReliableExchange::timer_delay(std::uint32_t src, std::uint32_t dst) {
  PairState& st = state(src, dst);
  const double rto = st.rto > 0.0 ? st.rto : kRtoInitial;
  return rto * (1.0 + rng_.uniform(0.0, kRtoJitter));
}

ReliableExchange::TimerVerdict ReliableExchange::on_timer(std::uint32_t src,
                                                          std::uint32_t dst,
                                                          Epoch epoch) {
  PairState& st = state(src, dst);
  if (st.pending == 0) return TimerVerdict::kSuperseded;  // acked or reset
  if (st.pending != epoch) {
    // A newer send superseded this epoch while the pair is still unacked.
    // If the superseded epoch itself was never acked, its expired timer is
    // still a missed-ack strike for the pair: a sender whose loop interval
    // undercuts the rto replaces the pending epoch before any timer can
    // fire for it, and without counting these a hard partition never trips
    // suspicion. The newer epoch's chain owns retransmission and backoff —
    // this timer dies either way (no kRetransmit, no rto advance).
    if (epoch <= st.acked || st.suspected) return TimerVerdict::kSuperseded;
    ++st.attempts;
    if (st.attempts >= kSuspicionAfter) {
      st.suspected = true;
      ++suspected_pairs_;
      ++suspicion_events_;
      return TimerVerdict::kSuspectNow;
    }
    return TimerVerdict::kSuperseded;
  }
  if (st.acked >= epoch) {
    // on_ack clears the pending epoch whenever acked >= pending, so a timer
    // can never find its epoch both pending and acked. If one does, the
    // accounting regressed — record the zombie for the invariant checker.
    ++zombie_retransmits_;
    return TimerVerdict::kAcked;
  }
  if (st.suspected) return TimerVerdict::kParked;
  ++st.attempts;
  if (st.attempts >= kSuspicionAfter) {
    st.suspected = true;
    ++suspected_pairs_;
    ++suspicion_events_;
    return TimerVerdict::kSuspectNow;
  }
  st.rto *= kRtoBackoff;
  return TimerVerdict::kRetransmit;
}

bool ReliableExchange::on_ack(std::uint32_t src, std::uint32_t dst, Epoch value) {
  PairState& st = state(src, dst);
  st.acked = std::max(st.acked, value);
  clear_suspicion(st);  // an ack is definite evidence the peer is alive
  if (st.pending != 0 && st.acked >= st.pending) {
    st.pending = 0;
    return true;
  }
  return false;
}

bool ReliableExchange::peer_alive(std::uint32_t observer, std::uint32_t peer) {
  const auto it = pairs_.find(key(observer, peer));
  if (it == pairs_.end()) return false;
  PairState& st = it->second;
  const bool was_parked = st.suspected && st.pending != 0;
  clear_suspicion(st);
  return was_parked;
}

bool ReliableExchange::suspected(std::uint32_t src, std::uint32_t dst) const {
  const PairState* st = find(src, dst);
  return st != nullptr && st->suspected;
}

Epoch ReliableExchange::pending_epoch(std::uint32_t src, std::uint32_t dst) const {
  const PairState* st = find(src, dst);
  return st == nullptr ? 0 : st->pending;
}

void ReliableExchange::reset_pending() {
  // p2plint: allow(no-unordered-iteration): reset_transient touches only
  // the entry it visits (plus integer counters) — order-independent.
  for (auto& [k, st] : pairs_) reset_transient(st);
}

void ReliableExchange::reset_sender(std::uint32_t src) {
  // p2plint: allow(no-unordered-iteration): per-entry reset, as above.
  for (auto& [k, st] : pairs_) {
    if (static_cast<std::uint32_t>(k >> 32) == src) reset_transient(st);
  }
}

bool ReliableExchange::accept(std::uint32_t src, std::uint32_t dst, Epoch epoch) {
  PairState& st = state(src, dst);
  if (epoch > st.accepted) {
    st.accepted = epoch;
    return true;
  }
  ++duplicates_rejected_;
  return false;
}

Epoch ReliableExchange::accepted_epoch(std::uint32_t src, std::uint32_t dst) const {
  const PairState* st = find(src, dst);
  return st == nullptr ? 0 : st->accepted;
}

}  // namespace p2prank::transport
