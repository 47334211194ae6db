#include "recover/supervisor.hpp"

#include "obs/metric_names.hpp"
#include "obs/trace.hpp"
#include "serve/snapshot.hpp"

namespace p2prank::recover {

namespace {

/// Consecutive ticks a suspicion quorum must hold before eviction.
constexpr std::uint32_t kEvictAfter = 2;
/// Consecutive ticks of clean link probes before an evicted ranker rejoins.
constexpr std::uint32_t kRejoinAfter = 2;

}  // namespace

RecoverySupervisor::RecoverySupervisor(engine::DistributedRanking& sim,
                                       SupervisorOptions opts)
    : sim_(sim),
      opts_(opts),
      k_(sim.num_groups()),
      states_(k_, RankerState::kHealthy),
      suspect_streak_(k_, 0),
      probe_streak_(k_, 0),
      epochs_(k_, 0),
      ledger_(sim.current_assignment()) {
  if (opts_.serve_store != nullptr) {
    // A predecessor supervisor (pre-graph-update) may have left down-marks.
    for (std::uint32_t r = 0; r < k_; ++r) {
      opts_.serve_store->set_shard_health(r, true);
    }
  }
}

void RecoverySupervisor::trace(std::string_view what, double now,
                               std::uint32_t ranker, double value) const {
  if (opts_.tracer != nullptr) {
    opts_.tracer->instant(obs::names::kTraceRecovery, now, ranker, what, value);
  }
}

bool RecoverySupervisor::eviction_quorum(std::uint32_t r,
                                         std::uint32_t& successor) const {
  std::uint32_t peers = 0;
  std::uint32_t suspecters = 0;
  std::size_t best_pages = 0;
  bool have_successor = false;
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (s == r || states_[s] != RankerState::kHealthy) continue;
    if (sim_.group(s).size() == 0 || !sim_.has_cut_edges(s, r)) continue;
    ++peers;
    if (!sim_.suspected(s, r)) continue;
    ++suspecters;
    // Heir = the suspecter with the most pages (ties: lowest index wins by
    // scan order). Choosing among the suspecters lands the pages on the
    // majority side of the cut.
    if (!have_successor || sim_.group(s).size() > best_pages) {
      have_successor = true;
      best_pages = sim_.group(s).size();
      successor = s;
    }
  }
  return peers > 0 && 2 * suspecters > peers && have_successor;
}

bool RecoverySupervisor::probes_clean(std::uint32_t r) const {
  bool saw_peer = false;
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (s == r || states_[s] != RankerState::kHealthy) continue;
    if (sim_.group(s).size() == 0) continue;
    saw_peer = true;
    if (!sim_.probe_link(r, s) || !sim_.probe_link(s, r)) return false;
  }
  return saw_peer;
}

void RecoverySupervisor::evict(std::uint32_t r, std::uint32_t successor,
                               double now) {
  sim_.leave_group(r, successor);
  for (std::uint32_t& owner : ledger_) {
    if (owner == r) owner = successor;
  }
  states_[r] = RankerState::kEvicted;
  suspect_streak_[r] = 0;
  probe_streak_[r] = 0;
  ++epochs_[r];
  ++evictions_;
  if (opts_.serve_store != nullptr) {
    opts_.serve_store->set_shard_health(r, false);
  }
  trace("evict", now, r, static_cast<double>(successor));
}

void RecoverySupervisor::readmit(std::uint32_t r) {
  states_[r] = RankerState::kHealthy;
  probe_streak_[r] = 0;
  ++epochs_[r];
  if (opts_.serve_store != nullptr) {
    opts_.serve_store->set_shard_health(r, true);
  }
}

void RecoverySupervisor::rejoin(std::uint32_t r, double now) {
  // Donor = the largest live group (lowest index on ties) with at least two
  // pages — the same overlay arrival split join_group performs.
  std::uint32_t donor = k_;
  std::size_t best = 1;  // need >= 2 pages to split
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (s == r || states_[s] != RankerState::kHealthy) continue;
    if (sim_.group(s).size() > best) {
      best = sim_.group(s).size();
      donor = s;
    }
  }
  if (donor == k_) return;  // nobody can spare a page; try again next tick
  sim_.join_group(r, donor);
  if (!opts_.break_rejoin_ledger) {
    // Mirror join_group's split: the donor keeps the lower ceil(n/2) of its
    // ascending pages, the joiner takes the rest. The ledger scan is in
    // ascending page order, so counting down from the donor's total assigns
    // exactly the upper half.
    std::size_t donor_pages = 0;
    for (const std::uint32_t owner : ledger_) {
      if (owner == donor) ++donor_pages;
    }
    const std::size_t keep = (donor_pages + 1) / 2;
    std::size_t seen = 0;
    for (std::uint32_t& owner : ledger_) {
      if (owner != donor) continue;
      if (seen >= keep) owner = r;
      ++seen;
    }
  }
  readmit(r);
  ++rejoins_;
  trace("rejoin", now, r, static_cast<double>(donor));
}

void RecoverySupervisor::tick(double now) {
  // At most one membership change per tick: decisions stay serial, and the
  // quorum inputs for every later candidate are re-evaluated on fresh state
  // next tick instead of on the just-mutated wiring.
  bool changed = false;

  for (std::uint32_t r = 0; r < k_; ++r) {
    if (states_[r] != RankerState::kHealthy || sim_.group(r).size() == 0) {
      suspect_streak_[r] = 0;
      continue;
    }
    std::uint32_t successor = 0;
    if (eviction_quorum(r, successor)) {
      ++suspect_streak_[r];
      if (!changed && suspect_streak_[r] >= kEvictAfter) {
        evict(r, successor, now);
        changed = true;
      }
    } else {
      suspect_streak_[r] = 0;
    }
  }

  for (std::uint32_t r = 0; r < k_; ++r) {
    if (states_[r] != RankerState::kEvicted) continue;
    if (sim_.group(r).size() != 0) {
      // Scripted churn re-populated an evicted ranker between resyncs;
      // treat it as readmitted (the runner's resync also handles this).
      readmit(r);
      trace("readmit", now, r, 0.0);
      continue;
    }
    if (probes_clean(r)) {
      ++probe_streak_[r];
      if (!changed && probe_streak_[r] >= kRejoinAfter) {
        rejoin(r, now);
        changed = states_[r] == RankerState::kHealthy;
      }
    } else {
      probe_streak_[r] = 0;
    }
  }
}

void RecoverySupervisor::resync(double now) {
  ledger_ = sim_.current_assignment();
  for (std::uint32_t r = 0; r < k_; ++r) {
    if (states_[r] == RankerState::kEvicted && sim_.group(r).size() != 0) {
      readmit(r);
    }
  }
  ++resyncs_;
  trace("resync", now, 0, 0.0);
}

}  // namespace p2prank::recover
