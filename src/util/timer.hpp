// Wall-clock stopwatch for harness instrumentation only — simulation logic
// must never read real time (determinism).
#pragma once

#include <chrono>

namespace p2prank::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  // p2plint: allow(no-wallclock-rng): harness instrumentation is the one
  // sanctioned wall-clock reader; simulation logic uses virtual time only.
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace p2prank::util
