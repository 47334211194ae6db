#include "check/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace p2prank::check {

std::string_view op_kind_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kCrash: return "crash";
    case OpKind::kPause: return "pause";
    case OpKind::kResume: return "resume";
    case OpKind::kSetLoss: return "set_loss";
    case OpKind::kSaveCheckpoint: return "save";
    case OpKind::kRestoreCheckpoint: return "restore";
    case OpKind::kGraphUpdate: return "graph_update";
    case OpKind::kLeave: return "leave";
    case OpKind::kJoin: return "join";
    case OpKind::kSetAckLoss: return "set_ack_loss";
    case OpKind::kSetJitter: return "set_jitter";
    case OpKind::kPartition: return "partition";
    case OpKind::kHeal: return "heal";
    case OpKind::kCorrupt: return "corrupt";
  }
  return "?";
}

namespace {

bool parse_op_kind(std::string_view name, OpKind& out) {
  for (const OpKind kind :
       {OpKind::kCrash, OpKind::kPause, OpKind::kResume, OpKind::kSetLoss,
        OpKind::kSaveCheckpoint, OpKind::kRestoreCheckpoint, OpKind::kGraphUpdate,
        OpKind::kLeave, OpKind::kJoin, OpKind::kSetAckLoss, OpKind::kSetJitter,
        OpKind::kPartition, OpKind::kHeal, OpKind::kCorrupt}) {
    if (name == op_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::string_view partition_name(PartitionKind p) noexcept {
  switch (p) {
    case PartitionKind::kHashUrl: return "hash_url";
    case PartitionKind::kHashSite: return "hash_site";
    case PartitionKind::kRandom: return "random";
  }
  return "?";
}

bool parse_partition(std::string_view name, PartitionKind& out) {
  for (const PartitionKind p :
       {PartitionKind::kHashUrl, PartitionKind::kHashSite, PartitionKind::kRandom}) {
    if (name == partition_name(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

}  // namespace

Scenario Scenario::from_seed(std::uint64_t seed) {
  // Mixed so that consecutive seeds give unrelated scenarios.
  util::Rng rng(util::mix64(seed ^ 0xc8a5d5a7b0f3e14dULL));
  Scenario s;
  s.origin_seed = seed;

  // Workload: small crawls — the harness buys coverage with many seeds, not
  // big graphs. Sites scale with pages so site-granularity partitions stay
  // meaningful at this size.
  s.pages = 150 + static_cast<std::uint32_t>(rng.below(700));
  s.graph_seed = rng.next();
  s.k = 2 + static_cast<std::uint32_t>(rng.below(23));
  {
    const double roll = rng.uniform();
    s.partition = roll < 0.4   ? PartitionKind::kHashUrl
                  : roll < 0.8 ? PartitionKind::kHashSite
                               : PartitionKind::kRandom;
  }

  s.algorithm = rng.chance(0.5) ? engine::Algorithm::kDPR1
                                : engine::Algorithm::kDPR2;
  static constexpr double kLossLevels[] = {1.0, 0.95, 0.8, 0.6, 0.4};
  s.delivery_p = kLossLevels[rng.below(std::size(kLossLevels))];
  s.t1 = rng.uniform(0.0, 2.0);
  s.t2 = s.t1 + rng.uniform(0.5, 6.0);
  s.delivery_latency = rng.chance(0.3) ? rng.uniform(0.1, 1.0) : 0.0;
  s.stability_epsilon = rng.chance(0.25) ? 1e-10 : 0.0;
  s.warm_start_scale = rng.chance(0.25) ? rng.uniform(0.1, 0.9) : 0.0;
  s.engine_seed = rng.next();
  s.active_time = 30.0 + rng.uniform(0.0, 50.0);

  // Fault schedule. Times are drawn independently and sorted, so a restore
  // can land before any save (defined: it is then a no-op) — the runner and
  // minimizer never need ordering guarantees between op kinds.
  const std::size_t nops = rng.below(11);  // 0..10
  bool have_graph_update = false;
  std::vector<std::uint32_t> paused;  // generator-side guess, for aim only
  s.ops.reserve(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    ScheduleOp op;
    op.time = rng.uniform(1.0, s.active_time);
    const double roll = rng.uniform();
    if (roll < 0.28) {
      op.kind = OpKind::kCrash;
      op.group = static_cast<std::uint32_t>(rng.below(s.k));
    } else if (roll < 0.52) {
      op.kind = OpKind::kPause;
      op.group = static_cast<std::uint32_t>(rng.below(s.k));
      paused.push_back(op.group);
    } else if (roll < 0.72) {
      op.kind = OpKind::kResume;
      if (!paused.empty()) {
        const std::size_t pick = rng.below(paused.size());
        op.group = paused[pick];
        paused.erase(paused.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        op.group = static_cast<std::uint32_t>(rng.below(s.k));
      }
    } else if (roll < 0.84) {
      op.kind = OpKind::kSetLoss;
      // Either a burst into lossiness or back towards reliability.
      op.value = rng.chance(0.5) ? rng.uniform(0.2, 1.0) : s.delivery_p;
    } else if (roll < 0.91) {
      op.kind = OpKind::kSaveCheckpoint;
    } else if (roll < 0.97 || have_graph_update) {
      op.kind = OpKind::kRestoreCheckpoint;
    } else {
      op.kind = OpKind::kGraphUpdate;  // at most one: reference recompute is
      op.seed = rng.next();            // the expensive part of a scenario
      have_graph_update = true;
    }
    s.ops.push_back(op);
  }
  // --- Reliability extension (appended draws) -------------------------------
  // Every draw above is exactly the original generator's sequence, and the
  // extension runs on a sub-RNG seeded by one further draw — so for every
  // seed the base scenario fields are what they always were (the corpus
  // files depend on that), and the extension stays stable if it grows again.
  util::Rng ext(rng.next());
  s.reliable = ext.chance(0.5);
  // Jitter is only generated together with the reliable layer: without the
  // epoch filter, reordering breaks Thm 4.1 by design (the runner dis-arms
  // the monotone check for such hand-written traces).
  s.latency_jitter = (s.reliable && ext.chance(0.5)) ? ext.uniform(0.1, 1.5) : 0.0;
  const std::size_t extra = ext.below(4);  // 0..3 churn/reliability faults
  static constexpr double kAckLossLevels[] = {0.9, 0.7, 0.5, 0.3};
  for (std::size_t i = 0; i < extra; ++i) {
    ScheduleOp op;
    op.time = ext.uniform(1.0, s.active_time);
    double roll = ext.uniform();
    if (!s.reliable && roll >= 0.60) roll = ext.chance(0.5) ? 0.0 : 0.40;
    if (roll < 0.35) {
      op.kind = OpKind::kLeave;
      op.group = static_cast<std::uint32_t>(ext.below(s.k));
      op.group2 = static_cast<std::uint32_t>(
          (op.group + 1 + ext.below(s.k - 1)) % s.k);
    } else if (roll < 0.60) {
      op.kind = OpKind::kJoin;
      op.group = static_cast<std::uint32_t>(ext.below(s.k));
      op.group2 = static_cast<std::uint32_t>(
          (op.group + 1 + ext.below(s.k - 1)) % s.k);
    } else if (roll < 0.80) {
      op.kind = OpKind::kSetAckLoss;
      // Either an ack-loss burst or back to mirroring the data channel.
      op.value = ext.chance(0.5)
                     ? kAckLossLevels[ext.below(std::size(kAckLossLevels))]
                     : -1.0;
    } else {
      op.kind = OpKind::kSetJitter;
      // A reorder burst, or the burst's end (back to the base jitter).
      op.value = ext.chance(0.5) ? ext.uniform(0.2, 2.0) : s.latency_jitter;
    }
    s.ops.push_back(op);
  }

  // --- Partition/recovery extension (appended draws) ------------------------
  // Same append-only discipline as the reliability extension above: one
  // further draw seeds a sub-RNG, so every base + reliability field keeps
  // its historical value for every seed.
  util::Rng ext2(rng.next());
  s.recovery = ext2.chance(0.35);
  if (s.recovery) s.reliable = true;  // the supervisor reads the failure detector
  if (ext2.chance(0.5)) {
    // One partition episode: a node-set cut with (possibly asymmetric,
    // possibly hard) delivery probabilities, healed before the active
    // window ends. The runner's tail also heals, so a scenario minimized
    // down to a bare `partition` op is still well-defined.
    ScheduleOp cut;
    cut.kind = OpKind::kPartition;
    cut.time = ext2.uniform(1.0, s.active_time * 0.6);
    std::uint64_t mask = 0;
    for (std::uint32_t g = 0; g < s.k && g < 64; ++g) {
      if (ext2.chance(0.35)) mask |= std::uint64_t{1} << g;
    }
    // Side A must be a proper non-empty subset or the cut is vacuous.
    if (mask == 0) mask = std::uint64_t{1} << ext2.below(s.k);
    const std::uint64_t all = (std::uint64_t{1} << s.k) - 1;  // k <= 25
    if (mask == all) mask &= ~(std::uint64_t{1} << ext2.below(s.k));
    cut.seed = mask;
    cut.value = ext2.chance(0.5) ? 0.0 : ext2.uniform(0.05, 0.4);
    cut.value2 = ext2.chance(0.5) ? 0.0 : ext2.uniform(0.05, 0.4);
    s.ops.push_back(cut);
    ScheduleOp heal;
    heal.kind = OpKind::kHeal;
    heal.time = cut.time + ext2.uniform(3.0, (s.active_time - cut.time) * 0.8);
    s.ops.push_back(heal);
  }
  if (ext2.chance(0.4)) {
    ScheduleOp corrupt;
    corrupt.kind = OpKind::kCorrupt;
    corrupt.time = ext2.uniform(1.0, s.active_time * 0.7);
    corrupt.value = ext2.uniform(0.05, 0.5);
    s.ops.push_back(corrupt);
    if (ext2.chance(0.6)) {
      ScheduleOp off;  // end of the corruption burst
      off.kind = OpKind::kCorrupt;
      off.time = corrupt.time + ext2.uniform(2.0, 15.0);
      off.value = 0.0;
      s.ops.push_back(off);
    }
  }

  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const ScheduleOp& a, const ScheduleOp& b) {
                     return a.time < b.time;
                   });
  return s;
}

void Scenario::serialize(std::ostream& out) const {
  out << "# p2prank scenario trace v1\n";
  out << "origin_seed " << origin_seed << '\n';
  out << "pages " << pages << '\n';
  out << "graph_seed " << graph_seed << '\n';
  out << "k " << k << '\n';
  out << "partition " << partition_name(partition) << '\n';
  out << "algorithm "
      << (algorithm == engine::Algorithm::kDPR1 ? "DPR1" : "DPR2") << '\n';
  const auto old_precision = out.precision(17);
  out << "delivery_p " << delivery_p << '\n';
  out << "t1 " << t1 << '\n';
  out << "t2 " << t2 << '\n';
  out << "delivery_latency " << delivery_latency << '\n';
  out << "latency_jitter " << latency_jitter << '\n';
  out << "reliable " << (reliable ? 1 : 0) << '\n';
  out << "serve " << (serve ? 1 : 0) << '\n';
  out << "recovery " << (recovery ? 1 : 0) << '\n';
  out << "stability_epsilon " << stability_epsilon << '\n';
  out << "warm_start_scale " << warm_start_scale << '\n';
  out << "engine_seed " << engine_seed << '\n';
  out << "active_time " << active_time << '\n';
  for (const ScheduleOp& op : ops) {
    out << "op " << op.time << ' ' << op_kind_name(op.kind);
    switch (op.kind) {
      case OpKind::kCrash:
      case OpKind::kPause:
      case OpKind::kResume: out << ' ' << op.group; break;
      case OpKind::kLeave:
      case OpKind::kJoin: out << ' ' << op.group << ' ' << op.group2; break;
      case OpKind::kSetLoss:
      case OpKind::kSetAckLoss:
      case OpKind::kSetJitter:
      case OpKind::kCorrupt: out << ' ' << op.value; break;
      case OpKind::kGraphUpdate: out << ' ' << op.seed; break;
      case OpKind::kPartition:
        out << ' ' << op.seed << ' ' << op.value << ' ' << op.value2;
        break;
      case OpKind::kSaveCheckpoint:
      case OpKind::kRestoreCheckpoint:
      case OpKind::kHeal: break;
    }
    out << '\n';
  }
  out.precision(old_precision);
}

std::string Scenario::to_text() const {
  std::ostringstream out;
  serialize(out);
  return out.str();
}

Scenario Scenario::parse(std::istream& in) {
  Scenario s;
  s.ops.clear();
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("Scenario::parse: " + what + " on line " +
                             std::to_string(line_no));
  };
  // serialize() writes exactly the fields each line needs, so anything
  // after them is not a trace it wrote (and to_text would drop it).
  const auto reject_trailing = [&](std::istringstream& fields) {
    std::string extra;
    if (fields >> extra) fail("trailing token '" + extra + "'");
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "op") {
      ScheduleOp op;
      std::string kind_name;
      if (!(fields >> op.time >> kind_name)) fail("malformed op");
      if (!parse_op_kind(kind_name, op.kind)) fail("unknown op kind '" + kind_name + "'");
      switch (op.kind) {
        case OpKind::kCrash:
        case OpKind::kPause:
        case OpKind::kResume:
          if (!(fields >> op.group)) fail("op missing group");
          break;
        case OpKind::kLeave:
        case OpKind::kJoin:
          if (!(fields >> op.group >> op.group2)) fail("op missing group pair");
          break;
        case OpKind::kSetLoss:
        case OpKind::kSetAckLoss:
        case OpKind::kSetJitter:
        case OpKind::kCorrupt:
          if (!(fields >> op.value)) fail("op missing value");
          break;
        case OpKind::kGraphUpdate:
          if (!(fields >> op.seed)) fail("op missing seed");
          break;
        case OpKind::kPartition:
          if (!(fields >> op.seed >> op.value >> op.value2)) {
            fail("op missing partition mask/probabilities");
          }
          break;
        case OpKind::kSaveCheckpoint:
        case OpKind::kRestoreCheckpoint:
        case OpKind::kHeal: break;
      }
      reject_trailing(fields);
      s.ops.push_back(op);
      continue;
    }
    std::string text_value;
    if (key == "partition") {
      if (!(fields >> text_value) || !parse_partition(text_value, s.partition)) {
        fail("bad partition");
      }
    } else if (key == "algorithm") {
      if (!(fields >> text_value)) fail("bad algorithm");
      if (text_value == "DPR1") {
        s.algorithm = engine::Algorithm::kDPR1;
      } else if (text_value == "DPR2") {
        s.algorithm = engine::Algorithm::kDPR2;
      } else {
        fail("unknown algorithm '" + text_value + "'");
      }
    } else if (key == "origin_seed") {
      if (!(fields >> s.origin_seed)) fail("bad origin_seed");
    } else if (key == "pages") {
      if (!(fields >> s.pages)) fail("bad pages");
    } else if (key == "graph_seed") {
      if (!(fields >> s.graph_seed)) fail("bad graph_seed");
    } else if (key == "k") {
      if (!(fields >> s.k)) fail("bad k");
    } else if (key == "delivery_p") {
      if (!(fields >> s.delivery_p)) fail("bad delivery_p");
    } else if (key == "t1") {
      if (!(fields >> s.t1)) fail("bad t1");
    } else if (key == "t2") {
      if (!(fields >> s.t2)) fail("bad t2");
    } else if (key == "delivery_latency") {
      if (!(fields >> s.delivery_latency)) fail("bad delivery_latency");
    } else if (key == "latency_jitter") {
      if (!(fields >> s.latency_jitter)) fail("bad latency_jitter");
    } else if (key == "reliable") {
      int flag = 0;
      if (!(fields >> flag)) fail("bad reliable");
      s.reliable = flag != 0;
    } else if (key == "worklist") {
      // Traces written while the frontier kernel was optional carry this
      // key; every scenario now runs that kernel, so it is read and ignored.
      int flag = 0;
      if (!(fields >> flag)) fail("bad worklist");
    } else if (key == "serve") {
      int flag = 0;
      if (!(fields >> flag)) fail("bad serve");
      s.serve = flag != 0;
    } else if (key == "recovery") {
      int flag = 0;
      if (!(fields >> flag)) fail("bad recovery");
      s.recovery = flag != 0;
    } else if (key == "stability_epsilon") {
      if (!(fields >> s.stability_epsilon)) fail("bad stability_epsilon");
    } else if (key == "warm_start_scale") {
      if (!(fields >> s.warm_start_scale)) fail("bad warm_start_scale");
    } else if (key == "engine_seed") {
      if (!(fields >> s.engine_seed)) fail("bad engine_seed");
    } else if (key == "active_time") {
      if (!(fields >> s.active_time)) fail("bad active_time");
    } else {
      fail("unknown key '" + key + "'");
    }
    reject_trailing(fields);
  }
  if (s.pages == 0 || s.k == 0) {
    throw std::runtime_error("Scenario::parse: incomplete trace (pages/k)");
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const ScheduleOp& a, const ScheduleOp& b) {
                     return a.time < b.time;
                   });
  return s;
}

Scenario Scenario::parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

}  // namespace p2prank::check
