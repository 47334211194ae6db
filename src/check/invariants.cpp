#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace p2prank::check {

InvariantChecker::InvariantChecker(const engine::DistributedRanking& sim,
                                   std::vector<double> reference,
                                   bool check_monotone, bool check_bound,
                                   bool expect_status_per_step)
    : sim_(sim),
      reference_(std::move(reference)),
      baseline_(sim.global_ranks()),
      check_monotone_(check_monotone),
      monotone_armed_(check_monotone),
      check_bound_(check_bound),
      expect_status_per_step_(expect_status_per_step) {
  if (reference_.size() != baseline_.size()) {
    throw std::invalid_argument("InvariantChecker: reference size mismatch");
  }
}

void InvariantChecker::on_crash(std::uint32_t group) {
  // A crash breaks Thm 4.1's premise for EVERY page, not just the crashed
  // group's: the rebooted ranker's next Y sends are computed from its reset
  // (near-zero) ranks and *replace* the higher pre-crash entries in peers'
  // X, so peers' ranks legitimately decrease — and the dip cascades
  // transitively for an unbounded settling period. Dis-arm monotonicity
  // until a consistency-restoring restore; bound/finite/counters stay on.
  (void)group;
  monotone_armed_ = false;
}

void InvariantChecker::on_restore(std::span<const double> restored_ranks,
                                  bool consistent) {
  if (restored_ranks.size() != baseline_.size()) {
    throw std::invalid_argument("InvariantChecker: restored size mismatch");
  }
  baseline_.assign(restored_ranks.begin(), restored_ranks.end());
  // A restore crashes every group and warm-starts from the checkpoint,
  // which re-primes every X slice consistently from the restored vector.
  // If that vector was saved during a monotone phase it satisfies
  // R <= F(R) (each page's value came from an earlier solve whose X inputs
  // have only grown since), so regrowth from it is monotone again.
  monotone_armed_ = check_monotone_ && consistent;
}

void InvariantChecker::check_sample(std::vector<Violation>& out) {
  ++samples_checked_;
  const double t = sim_.now();
  const auto ranks = sim_.global_ranks();
  const auto page_detail = [&](std::size_t page, const char* relation,
                               double limit) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "page " << page << ": rank " << ranks[page] << ' ' << relation << ' '
        << limit;
    return msg.str();
  };

  // finite: always-on sanity floor under every other check.
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (!std::isfinite(ranks[i]) || ranks[i] < -kTol) {
      out.push_back({"finite", t, page_detail(i, "not finite/non-negative;", 0.0)});
      break;
    }
  }

  if (monotone_armed_) {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] < baseline_[i] - kTol) {
        out.push_back({"monotone", t,
                       page_detail(i, "decreased below baseline", baseline_[i])});
        break;
      }
    }
  }
  if (check_bound_) {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] > reference_[i] + kTol) {
        out.push_back(
            {"bound", t, page_detail(i, "exceeds centralized R*", reference_[i])});
        break;
      }
    }
  }
  // The sequence between fault resets is what must be monotone; ratchet the
  // baseline to the ranks just observed (even when the monotone check is
  // off, keeping it current costs nothing and simplifies re-enabling).
  baseline_.assign(ranks.begin(), ranks.end());

  // counters: no tally ever goes backwards, and the cross-tally relations
  // hold (the reliable-layer tallies are identically 0 with fire-and-forget,
  // so their checks are free there).
  const engine::EngineCounters c = sim_.counters();
  const auto per_group = sim_.records_sent_per_group();
  const std::uint64_t group_records =
      std::accumulate(per_group.begin(), per_group.end(), std::uint64_t{0});
  const auto* backwards = std::find_if(
      std::begin(engine::kCounterFields), std::end(engine::kCounterFields),
      [&](const engine::CounterField& f) { return c.*f.field < prev_.*f.field; });
  std::ostringstream counter_fail;
  if (backwards != std::end(engine::kCounterFields)) {
    counter_fail << (backwards->metric.empty() ? "an unexported tally"
                                               : backwards->metric)
                 << " went backwards (" << prev_.*backwards->field << "->"
                 << c.*backwards->field << ")";
  } else if (c.messages_lost > c.messages_sent) {
    counter_fail << "messages_lost " << c.messages_lost << " > messages_sent "
                 << c.messages_sent;
  } else if (group_records != c.records_sent) {
    counter_fail << "per-group records sum " << group_records
                 << " != records_sent " << c.records_sent;
  } else if (expect_status_per_step_ && c.status_messages != c.outer_steps) {
    counter_fail << "status_messages " << c.status_messages
                 << " != total_outer_steps " << c.outer_steps;
  } else if (c.acks_delivered > c.acks_sent) {
    counter_fail << "acks_delivered " << c.acks_delivered << " > acks_sent "
                 << c.acks_sent;
  } else if (c.retransmissions > c.messages_sent) {
    counter_fail << "retransmissions " << c.retransmissions << " > messages_sent "
                 << c.messages_sent;
  }
  if (const auto msg = counter_fail.str(); !msg.empty()) {
    out.push_back({"counters", t, msg});
  }
  prev_ = c;

  // zombie: a retransmit timer observed its epoch pending AND acked — the
  // ack path failed to clear the pending epoch. Impossible by construction;
  // a nonzero count is a transport regression, flagged immediately.
  if (c.zombie_retransmits != 0) {
    std::ostringstream msg;
    msg << c.zombie_retransmits
        << " retransmit timer(s) fired for an already-acked epoch";
    out.push_back({"zombie", t, msg.str()});
  }

  // corrupt-applied: a corrupted frame survived checksum + header validation
  // and was applied. A 64-bit FNV collision landing on a valid frame is
  // astronomically unlikely; any nonzero count means the codec's validation
  // order regressed.
  if (c.corrupt_frames_applied != 0) {
    std::ostringstream msg;
    msg << c.corrupt_frames_applied
        << " corrupted frame(s) passed validation and were applied";
    out.push_back({"corrupt-applied", t, msg.str()});
  }
  // slice-guard: the delivery-time NaN/Inf/negative/order guard behind the
  // codec fired. The codec quarantines garbage first, so in simulation this
  // defense-in-depth layer must never be the one that catches it.
  if (c.slices_rejected != 0) {
    std::ostringstream msg;
    msg << c.slices_rejected
        << " slice(s) rejected by the delivery-time payload guard";
    out.push_back({"slice-guard", t, msg.str()});
  }

  // epochs: every ordered pair's accepted epoch is non-decreasing. This is
  // unconditional — crashes wipe application state, churn rebuilds the
  // wiring, but the transport session's sequence numbers survive both.
  const std::uint32_t k = sim_.num_groups();
  if (prev_epochs_.empty()) prev_epochs_.assign(std::size_t{k} * k, 0);
  for (std::uint32_t src = 0; src < k; ++src) {
    for (std::uint32_t dst = 0; dst < k; ++dst) {
      const std::uint64_t e = sim_.accepted_epoch(src, dst);
      std::uint64_t& prev = prev_epochs_[std::size_t{src} * k + dst];
      if (e < prev) {
        std::ostringstream msg;
        msg << "accepted epoch for pair (" << src << " -> " << dst
            << ") went backwards: " << prev << " -> " << e;
        out.push_back({"epochs", t, msg.str()});
        src = k;  // one violation per sample is enough
        break;
      }
      prev = e;
    }
  }

  // ownership: exactly one owner per page. current_assignment() reports
  // UINT32_MAX for orphans, and the total group sizes catch duplicates.
  const auto assignment = sim_.current_assignment();
  std::size_t orphan = assignment.size();
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    if (assignment[p] == UINT32_MAX && orphan == assignment.size()) orphan = p;
  }
  std::size_t member_total = 0;
  for (std::uint32_t grp = 0; grp < k; ++grp) member_total += sim_.group(grp).size();
  if (orphan != assignment.size() || member_total != assignment.size()) {
    std::ostringstream msg;
    if (orphan != assignment.size()) {
      msg << "page " << orphan << " has no owning ranker";
    } else {
      msg << "group sizes sum to " << member_total << " for "
          << assignment.size() << " pages (a page is owned twice)";
    }
    out.push_back({"ownership", t, msg.str()});
  }
}

}  // namespace p2prank::check
