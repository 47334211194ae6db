#!/usr/bin/env bash
# Build the concurrency-sensitive targets under ThreadSanitizer and run the
# thread-pool and rank-sweep suites. The ThreadPool fork-join has no locks on
# its hot path (epoch + atomic grain counter), so TSan is the check that the
# handshake is actually race-free, not just "has not crashed yet".
#
# Every tier-1 and tier-2 test then runs under AddressSanitizer + UBSan: the
# reliable exchange layer moves Y-slice payload buffers between retransmit
# timers, delivery events, and churn rebuilds (shared_ptr closures
# invalidated by generation stamps) — ASan is the check that no event ever
# touches a freed payload or a rebuilt group, on top of TSan's data-race
# certification.
#
# usage: tools/check_sanitized.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan \
  --target util_thread_pool_test rank_sweep_test serve_snapshot_test \
  scenario_fuzz -j"$(nproc)"

TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/util_thread_pool_test "$@"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/rank_sweep_test "$@"
echo "TSan: thread-pool and rank-sweep suites clean"

# The serving layer's epoch-swap path: real reader threads racing a real
# publisher over the double-buffered SnapshotStore. TSan is the proof that
# "zero torn reads" comes from the publication protocol, not from luck.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_snapshot_test "$@"
echo "TSan: serve snapshot-swap suite clean"

# The chaos-scenario smoke corpus drives the whole engine (fork-join sweeps,
# event queue, fault injection) through randomized fault schedules — run it
# under TSan too so the harness itself is certified race-free. Every group
# sweeps with the frontier kernel, which scatters dirty bits along push
# edges with relaxed atomic fetch_or while other workers read neighbouring
# words, so this pass certifies that pattern too.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-tsan --quiet
echo "TSan: chaos-scenario smoke corpus clean"

# With a rank-serving SnapshotStore attached to every scenario the runner
# probes the store at each sample while the engine publishes underneath —
# the cross-layer version of the serve_snapshot_test race.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-tsan --quiet \
  --serve
echo "TSan: chaos-scenario smoke corpus clean (--serve)"

# Partition & recovery (DESIGN.md §13): forced cut/heal episodes with the
# RecoverySupervisor evicting and rejoining rankers mid-run, plus frame
# corruption round-tripping every slice through the codec. The supervisor
# pokes the SnapshotStore's shard-health bitmap from the simulation thread
# while nothing else may race it — TSan certifies that claim.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-tsan --quiet \
  --partition
echo "TSan: chaos-scenario smoke corpus clean (--partition)"

# Then every tier-1 and tier-2 test under ASan + UBSan: heap-use-after-free
# and overflow, plus -fsanitize=float-divide-by-zero,float-cast-overflow —
# rank math divides by degree sums and casts scores to counters, so a silent
# inf/NaN or a truncating cast would corrupt results without crashing. Tier 2
# runs the scenario corpus plain, with --full-rebuild, --serve, --partition
# and --partition --broken, and the --smoke determinism gate with and
# without the reliable layer forced on, so every retransmit/ack/churn path
# runs under the checks. UBSan halts on its first report: without
# halt_on_error a report is printed and the run still passes.
cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan -L 'tier1|tier2' -j"$(nproc)" --output-on-failure "$@"
echo "ASan+UBSan: tier-1 and tier-2 suites clean"
