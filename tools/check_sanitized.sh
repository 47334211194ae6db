#!/usr/bin/env bash
# Build the concurrency-sensitive targets under ThreadSanitizer and run the
# thread-pool and rank-sweep suites. The ThreadPool fork-join has no locks on
# its hot path (epoch + atomic grain counter), so TSan is the check that the
# handshake is actually race-free, not just "has not crashed yet".
#
# The scenario corpus additionally runs under AddressSanitizer: the reliable
# exchange layer moves Y-slice payload buffers between retransmit timers,
# delivery events, and churn rebuilds (shared_ptr closures invalidated by
# generation stamps) — ASan is the check that no event ever touches a freed
# payload or a rebuilt group, on top of TSan's data-race certification.
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

# Same corpus under ASan + UBSan (heap-use-after-free / overflow, plus
# -fsanitize=float-divide-by-zero,float-cast-overflow — rank math divides
# by degree sums and casts scores to counters, so silent inf/NaN or a
# truncating cast would corrupt results without crashing), both on the
# scenarios' own channel configurations and with the reliable layer forced
# on, so every retransmit/ack/churn code path runs under the checks.
cmake --preset asan
cmake --build --preset asan --target scenario_fuzz graph_builder_test \
  graph_io_test graph_updates_test rankmeter \
  obs_metrics_test util_bytes_test transport_frame_test transport_wire_test \
  rank_matrix_test engine_group_test engine_incremental_test engine_wiring_test \
  serve_snapshot_test serve_degraded_test engine_termination_checkpoint_test \
  transport_reliable_test -j"$(nproc)"

# Graph-path edge cases (DESIGN.md §14): default-constructed / out-of-range
# WebGraph accessors (the old out_links(0) UB), loader reject paths, binary
# round trips, streamed two-pass builds, and the incremental update splice
# against its rebuild oracle — the suites whose bugs ASan sees and a plain
# build might not.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/graph_builder_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/graph_io_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/graph_updates_test "$@"
echo "ASan: graph edge-case suites clean"

# The byte codec and the two transport decoders built on it (DESIGN.md §3,
# §13): table rows of malformed varints and out-of-range lengths, plus the
# prefix-truncation and byte-flip sweeps — every read must stay inside its
# span whatever the input.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/util_bytes_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/transport_frame_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/transport_wire_test "$@"
echo "ASan: byte codec and transport decoder suites clean"

# Engine wiring (DESIGN.md §6): every group's matrix rows and efferent
# blocks are written through offsets computed from the page placement into
# presized arrays, and refresh_x indexes X by received slice entries. The
# matrix, page-group, incremental-swap and wiring-oracle suites drive those
# writes on empty, single and 64-way partitions.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/rank_matrix_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/engine_group_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/engine_incremental_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/engine_wiring_test "$@"
echo "ASan: matrix and engine wiring suites clean"

# Serving and state-transfer inputs (DESIGN.md §12): the dense publish
# validates shard ids before it indexes per-shard state, the degraded-read
# paths index shard health by id, checkpoint loading matches untrusted URL
# lines against the graph, and the reliable layer's per-pair state is
# driven directly by its schedule test.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/serve_snapshot_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/serve_degraded_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/engine_termination_checkpoint_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/transport_reliable_test "$@"
echo "ASan: serving, checkpoint and reliable-exchange suites clean"

ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --reliable
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --serve
# Eviction hands page buffers to a successor and rejoin splits them back —
# churn rebuilds driven by the supervisor instead of the script. ASan holds
# the same no-freed-payload guarantee through those handoffs.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --partition
echo "ASan: chaos-scenario smoke corpus clean (base + --reliable + --serve + --partition)"

# The instrumented path: engines export counters into a registry that
# outlives them (graph-update rebuilds, churn retiring groups).
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/obs_metrics_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/rankmeter --smoke \
  --quiet --seeds-file tests/corpus/scenario_seeds.txt
echo "ASan: instrumented runs clean (obs_metrics_test + rankmeter --smoke)"
