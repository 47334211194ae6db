// ReliableExchange on its own (src/transport/reliable.hpp, DESIGN.md §8):
// the fixed retransmit schedule (RTO 1 doubling per retransmission, jitter
// U[1, 1.25), suspicion at the 4th missed timer), what an ack resets, the
// strike a superseded epoch's timer still counts, and the epoch filter.
#include <gtest/gtest.h>

#include <cstdint>

#include "transport/reliable.hpp"

namespace p2prank::transport {
namespace {

using Verdict = ReliableExchange::TimerVerdict;

/// Every delay is rto · (1 + U[0, 0.25)): in [rto, 1.25 · rto).
void expect_delay_in(ReliableExchange& rx, double rto, std::uint64_t seed) {
  const double d = rx.timer_delay(0, 1);
  EXPECT_GE(d, rto) << "seed " << seed;
  EXPECT_LT(d, 1.25 * rto) << "seed " << seed;
}

TEST(ReliableExchange, BackoffDoublesToEightThenSuspectsAndParks) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ReliableExchange rx(seed);
    const Epoch e = rx.begin_send(0, 1);
    EXPECT_EQ(e, 1u);
    expect_delay_in(rx, 1.0, seed);
    EXPECT_EQ(rx.on_timer(0, 1, e), Verdict::kRetransmit);
    expect_delay_in(rx, 2.0, seed);
    EXPECT_EQ(rx.on_timer(0, 1, e), Verdict::kRetransmit);
    expect_delay_in(rx, 4.0, seed);
    EXPECT_EQ(rx.on_timer(0, 1, e), Verdict::kRetransmit);
    expect_delay_in(rx, 8.0, seed);
    // The 4th missed timer suspects the peer instead of doubling again, so
    // the RTO never passes 8.
    EXPECT_FALSE(rx.suspected(0, 1));
    EXPECT_EQ(rx.on_timer(0, 1, e), Verdict::kSuspectNow);
    EXPECT_TRUE(rx.suspected(0, 1));
    EXPECT_EQ(rx.suspected_pairs(), 1u);
    EXPECT_EQ(rx.suspicion_events(), 1u);
    EXPECT_EQ(rx.on_timer(0, 1, e), Verdict::kParked);
    EXPECT_EQ(rx.pending_epoch(0, 1), e);
    EXPECT_EQ(rx.zombie_retransmits(), 0u);
  }
}

TEST(ReliableExchange, AckClearsSuspicionAndRestartsTheSchedule) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ReliableExchange rx(seed);
    const Epoch e = rx.begin_send(0, 1);
    for (int strike = 0; strike < 3; ++strike) {
      ASSERT_EQ(rx.on_timer(0, 1, e), Verdict::kRetransmit);
    }
    ASSERT_EQ(rx.on_timer(0, 1, e), Verdict::kSuspectNow);

    EXPECT_TRUE(rx.on_ack(0, 1, e));  // cleared the pending epoch
    EXPECT_FALSE(rx.suspected(0, 1));
    EXPECT_EQ(rx.suspected_pairs(), 0u);
    EXPECT_EQ(rx.pending_epoch(0, 1), 0u);
    // A timer still in flight for the acked epoch is dead.
    EXPECT_EQ(rx.on_timer(0, 1, e), Verdict::kSuperseded);

    const Epoch next = rx.begin_send(0, 1);
    EXPECT_EQ(next, e + 1);
    expect_delay_in(rx, 1.0, seed);
    EXPECT_EQ(rx.on_timer(0, 1, next), Verdict::kRetransmit);
    expect_delay_in(rx, 2.0, seed);
  }
}

TEST(ReliableExchange, SupersededUnackedTimerStrikesWithoutBackingOff) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ReliableExchange rx(seed);
    const Epoch old_epoch = rx.begin_send(0, 1);
    const Epoch newer = rx.begin_send(0, 1);  // supersedes, keeps the backoff
    EXPECT_EQ(rx.pending_epoch(0, 1), newer);

    // The superseded epoch's timer dies, but it was never acked: strike 1.
    EXPECT_EQ(rx.on_timer(0, 1, old_epoch), Verdict::kSuperseded);
    expect_delay_in(rx, 1.0, seed);  // the newer chain's RTO did not move

    // Strikes 2 and 3 back off; strike 4 is only the newer epoch's third.
    EXPECT_EQ(rx.on_timer(0, 1, newer), Verdict::kRetransmit);
    expect_delay_in(rx, 2.0, seed);
    EXPECT_EQ(rx.on_timer(0, 1, newer), Verdict::kRetransmit);
    expect_delay_in(rx, 4.0, seed);
    EXPECT_EQ(rx.on_timer(0, 1, newer), Verdict::kSuspectNow);
  }
}

TEST(ReliableExchange, AcceptRejectsReorderedOlderEpochs) {
  ReliableExchange rx(7);
  EXPECT_TRUE(rx.accept(0, 1, 2));
  EXPECT_FALSE(rx.accept(0, 1, 1));  // reordered: older than the mark
  EXPECT_FALSE(rx.accept(0, 1, 2));  // duplicate of the mark
  EXPECT_EQ(rx.duplicates_rejected(), 2u);
  EXPECT_EQ(rx.accepted_epoch(0, 1), 2u);
  EXPECT_TRUE(rx.accept(0, 1, 3));
  EXPECT_EQ(rx.accepted_epoch(0, 1), 3u);
  // Marks are per ordered pair.
  EXPECT_TRUE(rx.accept(1, 0, 1));
  EXPECT_EQ(rx.duplicates_rejected(), 2u);
}

}  // namespace
}  // namespace p2prank::transport
