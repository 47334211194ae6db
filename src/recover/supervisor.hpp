// RecoverySupervisor: deterministic partition-tolerant self-healing
// (DESIGN.md §13).
//
// The supervisor sits beside a DistributedRanking and turns the transport
// layer's *local* failure evidence into *global* membership decisions, the
// piece the paper leaves to "the DHT layer". It is ticked at every chaos
// sample and escalates through a per-ranker state machine:
//
//   suspicion quorum  — a ranker r is in trouble when a strict majority of
//                       its live link peers (groups that send it Y slices)
//                       currently suspect it (reliable-layer failure
//                       detection, reliable.hpp). One noisy peer cannot
//                       evict anyone; a partition that separates r from the
//                       majority side can.
//   eviction          — after 2 consecutive quorum ticks, r's pages are
//                       handed to a successor chosen *among the
//                       suspecters* (the majority side of the cut — they can
//                       reach each other, so the handoff is serviceable):
//                       the suspecter owning the most pages, lowest index on
//                       ties. No eligible successor (e.g. the symmetric k=2
//                       split, where the survivor would have to be chosen by
//                       the minority) blocks the eviction. At most one
//                       membership change per tick keeps decisions serial
//                       and replayable.
//   rejoin            — an evicted ranker is readmitted after 2 consecutive
//                       ticks in which the deterministic link probe
//                       (FaultPlane::link_up) reports both directions clean
//                       to every page-owning ranker. It re-enters via the
//                       overlay's join split, taking the upper half of the
//                       largest live group's pages.
//
// The supervisor mirrors every decision into its own page → owner *ledger*.
// The ledger is the machine-checkable contract: the chaos runner compares
// it against the engine's current_assignment() at every sample, so a lost
// or duplicated page during a handoff — on either side — is caught within
// one sample interval. Scripted churn (chaos kLeave/kJoin ops) bypasses the
// supervisor; the runner calls resync() so the ledger follows, and the
// resync also re-admits an evicted ranker that scripted churn re-populated.
//
// Each ranker carries a monotone *recovery epoch*, bumped at every eviction
// and rejoin — the fencing token a real deployment would attach to handoff
// messages. The runner checks it never regresses.
//
// Determinism: every input (suspicion flags, link probes, group sizes) is a
// pure function of the seeded simulation state, and tick order is fixed, so
// the same scenario produces the same eviction/rejoin history, forever.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "engine/distributed.hpp"

namespace p2prank::obs {
class Tracer;
}  // namespace p2prank::obs

namespace p2prank::serve {
class SnapshotStore;
}  // namespace p2prank::serve

namespace p2prank::recover {

struct SupervisorOptions {
  /// Harness self-test fault: "forget" the ledger update on rejoin. The
  /// runner's ledger cross-check MUST flag the run (scenario_fuzz --broken).
  bool break_rejoin_ledger = false;
  /// Optional sinks; pure observation except serve_store, which receives
  /// shard-health marks (down at eviction, up at rejoin/resync). The
  /// evictions(), rejoins() and resyncs() tallies are the caller's to
  /// export (the chaos runner adds them to its registry at the end of a
  /// run).
  obs::Tracer* tracer = nullptr;
  serve::SnapshotStore* serve_store = nullptr;
};

enum class RankerState : std::uint8_t {
  kHealthy,  ///< participating (possibly empty — a valid scripted-join target)
  kEvicted,  ///< pages handed off; waiting for clean probes to rejoin
};

class RecoverySupervisor {
 public:
  /// `sim` must outlive the supervisor. Marks every shard healthy in
  /// opts.serve_store (a predecessor supervisor may have left marks).
  RecoverySupervisor(engine::DistributedRanking& sim, SupervisorOptions opts);

  /// One escalation round at virtual time `now`: update suspicion streaks,
  /// perform at most one eviction or rejoin, mirror it into the ledger.
  void tick(double now);

  /// Scripted churn changed ownership behind the supervisor's back: adopt
  /// the engine's assignment as the new ledger and re-admit any evicted
  /// ranker that now owns pages (with a recovery-epoch bump).
  void resync(double now);

  [[nodiscard]] RankerState state(std::uint32_t ranker) const {
    return states_[ranker];
  }
  /// Monotone per-ranker fencing token: bumped at eviction and rejoin.
  [[nodiscard]] std::uint64_t recovery_epoch(std::uint32_t ranker) const {
    return epochs_[ranker];
  }
  /// The supervisor's own page → owner map, updated at every decision it
  /// makes. Invariant (checked by the runner every sample): equals the
  /// engine's current_assignment().
  [[nodiscard]] std::span<const std::uint32_t> ledger() const noexcept {
    return ledger_;
  }

  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t rejoins() const noexcept { return rejoins_; }
  [[nodiscard]] std::uint64_t resyncs() const noexcept { return resyncs_; }

 private:
  void trace(std::string_view what, double now, std::uint32_t ranker,
             double value) const;

  /// True when the eviction quorum holds for r this tick; sets `successor`
  /// to the chosen heir (the suspecter with the most pages).
  [[nodiscard]] bool eviction_quorum(std::uint32_t r,
                                     std::uint32_t& successor) const;
  /// True when every page-owning healthy ranker can reach r and vice versa
  /// (deterministic probe, no RNG draw).
  [[nodiscard]] bool probes_clean(std::uint32_t r) const;

  void evict(std::uint32_t r, std::uint32_t successor, double now);
  /// Mark r healthy again: probe streak reset, recovery epoch bumped, shard
  /// health up. Shared by rejoin and the two scripted-churn readmissions.
  void readmit(std::uint32_t r);
  void rejoin(std::uint32_t r, double now);

  engine::DistributedRanking& sim_;
  SupervisorOptions opts_;
  std::uint32_t k_;
  std::vector<RankerState> states_;
  std::vector<std::uint32_t> suspect_streak_;
  std::vector<std::uint32_t> probe_streak_;
  std::vector<std::uint64_t> epochs_;
  std::vector<std::uint32_t> ledger_;
  std::uint64_t evictions_ = 0;
  std::uint64_t rejoins_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace p2prank::recover
