// Runtime theorem checking for chaos scenarios.
//
// The InvariantChecker watches one DistributedRanking run and, at every
// sample point, machine-checks the properties the paper proves (Section 4.3
// + Appendix) plus the engine's own bookkeeping:
//
//   monotone     per-page rank never decreases (Thm 4.1). Holds from R0 = 0
//                and from any *consistent sub-fixed-point* start (scaled
//                warm start, or restore from a checkpoint saved during a
//                monotone phase — any snapshot of a monotone run satisfies
//                R <= F(R), so regrowth from it is monotone again). A crash
//                dis-arms the check globally, not just for the crashed
//                group: the rebooted ranker re-sends Y computed from its
//                re-grown (lower) ranks, and since Refresh X replaces
//                rather than maxes, the lowered contributions propagate and
//                legitimately decrease peers' ranks for an unbounded
//                settling period. Only a consistency-restoring restore
//                re-arms monotonicity.
//   bound        per-page rank <= centralized fixed point R* (Thm 4.2).
//   finite       every rank is finite and non-negative, always.
//   counters     every EngineCounters tally non-decreasing;
//                messages_lost <= messages_sent; per-group records sum to
//                the records total; with stability detection on, one
//                status message per outer step; acks_delivered <=
//                acks_sent and retransmissions <= messages_sent.
//   epochs       (reliable mode) the receiver-side accepted epoch of every
//                ordered ranker pair is non-decreasing — unconditionally,
//                across crashes and churn, because epochs are transport-
//                session state, not application state.
//   zombie       counters().zombie_retransmits stays 0: no retransmit timer ever
//                finds its epoch both pending and acked (an ack clears the
//                pending epoch atomically). A nonzero count is a regression
//                in the ack bookkeeping, not a tunable.
//   corrupt-applied  counters().corrupt_frames_applied stays 0: no byte-flipped
//                frame ever survives the codec's checksum + header
//                validation and reaches a ranker's X (DESIGN.md §13).
//   slice-guard  counters().slices_rejected stays 0: the delivery-time payload guard
//                (NaN/Inf/negative/order) behind the codec never fires —
//                garbage is quarantined at decode, one layer earlier.
//   ownership    every page has exactly one owning ranker — churn handoffs
//                (leave/join) conserve page ownership exactly (no page
//                orphaned, none duplicated).
//   convergence  (checked by the runner) a loss-free, fault-free tail must
//                reach the centralized ranks.
//
// A violation is a plain value naming the invariant, the virtual time, and
// a human-readable detail — the ScenarioRunner attaches them to the trace.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/distributed.hpp"

namespace p2prank::check {

struct Violation {
  /// "monotone" | "bound" | "finite" | "counters" | "epochs" | "zombie" |
  /// "corrupt-applied" | "slice-guard" | "ownership" | "convergence" —
  /// plus the runner-side probes: "serve-*", "recover-ledger",
  /// "recover-epoch"
  std::string invariant;
  double time = 0.0;      ///< virtual time of the failing sample
  std::string detail;
};

class InvariantChecker {
 public:
  /// `reference` is the centralized fixed point R* of the graph the engine
  /// runs on. `check_monotone`/`check_bound` gate the theorem invariants
  /// (disabled after a mid-run graph update, where the paper's premises are
  /// gone). `expect_status_per_step` mirrors stability_epsilon > 0. The
  /// monotone baseline starts from the engine's *current* ranks, so
  /// construct the checker after any warm start.
  InvariantChecker(const engine::DistributedRanking& sim,
                   std::vector<double> reference, bool check_monotone,
                   bool check_bound, bool expect_status_per_step);

  /// The runner crashed a non-empty group: its pages drop to 0 and the
  /// lowered Y it will re-send makes peers non-monotone too — dis-arm the
  /// monotone check until a consistency-restoring restore.
  void on_crash(std::uint32_t group);
  /// The runner crashed every group and warm-started from a checkpoint.
  /// `consistent` says the checkpoint was saved during a monotone phase
  /// (no un-restored crash, theorems' premises intact): if so — and the
  /// checker was constructed with monotone checking on — the monotone
  /// invariant re-arms with the restored vector as baseline.
  void on_restore(std::span<const double> restored_ranks, bool consistent);

  [[nodiscard]] bool monotone_armed() const noexcept { return monotone_armed_; }

  /// Check every invariant against the engine's current state. Appends at
  /// most one violation per invariant kind per call.
  void check_sample(std::vector<Violation>& out);

  [[nodiscard]] std::uint64_t samples_checked() const noexcept {
    return samples_checked_;
  }

  /// Absolute tolerance for the monotone/bound comparisons (ranks are O(1);
  /// fp noise from the fused sweeps stays orders of magnitude below this).
  static constexpr double kTol = 1e-9;

 private:
  const engine::DistributedRanking& sim_;
  std::vector<double> reference_;
  std::vector<double> baseline_;  ///< per-page monotone floor
  bool check_monotone_;   ///< ctor-time gate (premises of Thm 4.1 ever held)
  bool monotone_armed_;   ///< currently armed (no un-restored crash)
  bool check_bound_;
  bool expect_status_per_step_;
  engine::EngineCounters prev_;  ///< counters at the last sample
  /// Row-major k x k accepted-epoch high-water marks from the last sample.
  std::vector<std::uint64_t> prev_epochs_;
  std::uint64_t samples_checked_ = 0;
};

}  // namespace p2prank::check
