#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): standard build + full ctest, then the
# runtime message-path tests again under ThreadSanitizer (the mailbox drain /
# response pipelining code is exactly the kind of lock-free code TSan exists
# for), and epoch-based reclamation plus the vault structures under
# ASan+LSan (a reclamation or node bug is either a use-after-free, an
# out-of-bounds write or a leak — exactly what that pair detects).
# Every stage runs even if an earlier one failed; the script exits non-zero
# at the end and names the failed stages.
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

failed=()
# run_stage NAME FUNCTION: run one stage in a subshell with errexit on, so
# its first failing command ends that stage only.
run_stage() {
  local name="$1"
  shift
  set +e
  (set -euo pipefail; "$@")
  local rc=$?
  set -e
  if [[ "$rc" != 0 ]]; then
    echo "tier-1: stage '$name' FAILED (exit $rc)"
    failed+=("$name")
  fi
}

skip_tsan=0
skip_asan=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && skip_tsan=1
  [[ "$arg" == "--skip-asan" ]] && skip_asan=1
done

stage_ctest() {
  echo "== tier-1: standard build + ctest =="
  cmake -B build -S . > /dev/null
  cmake --build build -j
  (cd build && ctest --output-on-failure -j)
}
run_stage "build + ctest" stage_ctest

stage_oversubscribed() {
  # More runnable threads than cores is a tested condition, not an accident:
  # twice as many ctest jobs as CPUs, run twice back to back. Every test
  # carries a ctest TIMEOUT, so a stall fails here instead of hanging.
  echo "== tier-1: ctest oversubscribed (-j $((2 * $(nproc))), twice) =="
  for pass in 1 2; do
    (cd build && ctest --output-on-failure -j "$((2 * $(nproc)))")
  done
}
run_stage "ctest oversubscribed" stage_oversubscribed

stage_explore() {
  # Opt-in: a longer schedule-exploration sweep of the segment hand-off and
  # migration protocols (docs/TESTING.md Section 5). CI's schedule-explore job
  # runs the full 1000-seed version.
  if [[ "${PIMDS_SCHEDULE_EXPLORE:-0}" == 1 ]]; then
    echo "== tier-1: schedule-exploration sweep (PIMDS_SCHEDULE_EXPLORE=1) =="
    PIMDS_EXPLORE_SEEDS="${PIMDS_EXPLORE_SEEDS:-200}" \
      ./build/tests/test_schedule_explore
  fi
}
run_stage "schedule-exploration sweep" stage_explore

stage_telemetry() {
  echo "== tier-1: telemetry smoke (Zipf hot vault through the sampler) =="
  # A skewed table2 run with the sampler on: validate the JSONL stream, the
  # flight-recorder dump, and the bench JSON's telemetry section, then assert
  # the acceptance criterion — the theta=0.99 run must surface vault 0 as hot
  # in the windowed per-vault counters.
  telemetry_dir="$(mktemp -d)"
  PIMDS_FLIGHT_DUMP="$telemetry_dir/flight.json" ./build/bench/table2_skiplists \
    --skew 0.99 --json "$telemetry_dir/table2.json" \
    --telemetry "$telemetry_dir/table2.telemetry.jsonl" \
    --telemetry-interval-ms 25 > /dev/null
  python3 scripts/telemetry_report.py "$telemetry_dir/table2.telemetry.jsonl" \
    --assert-hot-vault --expect-vault 0
  python3 scripts/telemetry_report.py "$telemetry_dir/flight.json"
  python3 scripts/trace_report.py --check-bench "$telemetry_dir/table2.json"
  rm -rf "$telemetry_dir"
  echo "telemetry-smoke: OK"
}
run_stage "telemetry smoke" stage_telemetry

stage_sim_rows() {
  echo "== tier-1: sim rows (virtual-time baselines reproduce) =="
  # Table 1, the Section 5.2 queues, Table 2, its Zipf-skewed twin,
  # Figure 4 and the simulated rebalancing ablation run in virtual time, so
  # their committed BENCH_*.json must reproduce. bench_all.py regenerates
  # them under its own file names; perf_gate holds them at the committed
  # tolerances and notes_min bars.
  rows_dir="$(mktemp -d)"
  for filter in table1_linked_lists sec52_fifo_queues skiplists \
      ablation_rebalance_sim; do
    python3 scripts/bench_all.py --build-dir build --out-dir "$rows_dir" \
      --filter "$filter" > /dev/null
  done
  python3 scripts/perf_gate.py --baseline-dir . --fresh-dir "$rows_dir" \
    --only table1_linked_lists --only sec52_fifo_queues \
    --only table2_skiplists --only table2_skiplists_skew \
    --only fig4_skiplists --only ablation_rebalance_sim
  rm -rf "$rows_dir"
  echo "sim-rows: OK"
}
run_stage "sim rows" stage_sim_rows

stage_active_rebalance() {
  echo "== tier-1: active-rebalance smoke (closed loop must settle) =="
  # The INVERTED assertion: the real-thread ablation with --active lets the
  # AutoRebalancer drive migrations itself; the telemetry stream must show
  # the Zipf hot spot early (peak imbalance >= 2.5 on served ops), at least
  # one triggered migration, and a settled final third (every eligible
  # window < 2.0). The --family filter judges skiplist.vault<k>.ops — the
  # runtime message counters also carry migration streams and fat batches.
  active_dir="$(mktemp -d)"
  ./build/bench/ablation_rebalance --active \
    --json "$active_dir/active.json" \
    --telemetry "$active_dir/active.telemetry.jsonl" \
    --telemetry-interval-ms 100 > /dev/null
  python3 scripts/telemetry_report.py "$active_dir/active.telemetry.jsonl" \
    --assert-rebalance-settles --family skiplist \
    --threshold 2.5 --settle-threshold 2.0 --min-window-ops 200
  python3 scripts/trace_report.py --check-bench "$active_dir/active.json"
  rm -rf "$active_dir"
  echo "active-rebalance-smoke: OK"
}
run_stage "active-rebalance smoke" stage_active_rebalance

stage_latency() {
  echo "== tier-1: latency-smoke (open-loop sweep, CO-free recorder, M/D/1) =="
  # Open-loop tail-latency acceptance: two full queue sweeps at the baseline
  # configuration (best-of-2, same shape perf_gate expects), then
  #   * telemetry_report --assert-latency: every window's interpolated
  #     percentile ladder must be monotone and enough windows must carry the
  #     end-to-end sojourn family;
  #   * trace_report --check-bench: the pimds.bench.v2 latency blocks and
  #     conformance.latency rows must validate;
  #   * perf_gate --only openloop_latency: the virtual-time sim rows must sit
  #     inside the M/D/1 divergence bands, the below-knee gated p99s must not
  #     regress past the committed baseline's band, and the 1.1x row must
  #     still show the saturation signature.
  latency_dir="$(mktemp -d)"
  mkdir -p "$latency_dir/run1" "$latency_dir/run2"
  for run in run1 run2; do
    ./build/bench/openloop_latency --structure queue \
      --json "$latency_dir/$run/BENCH_openloop_latency.json" \
      --telemetry "$latency_dir/$run/openloop.telemetry.jsonl" \
      --telemetry-interval-ms 50 > /dev/null
  done
  python3 scripts/telemetry_report.py \
    "$latency_dir/run1/openloop.telemetry.jsonl" \
    --assert-latency --latency-family total_ns --min-window-count 50
  python3 scripts/trace_report.py --check-bench \
    "$latency_dir/run1/BENCH_openloop_latency.json"
  python3 scripts/perf_gate.py --baseline-dir . \
    --fresh-dir "$latency_dir/run1" --fresh-dir "$latency_dir/run2" \
    --only openloop_latency
  rm -rf "$latency_dir"
  echo "latency-smoke: OK"
}
run_stage "latency smoke" stage_latency

stage_obs_off() {
  echo "== tier-1: -DPIMDS_OBS=OFF configuration =="
  # Compiling test_obs in this configuration checks the layout static
  # asserts (FatEntry must drop to 32 bytes and Message to 112 with the
  # per-op trace context compiled out); the filtered run plus a bench smoke
  # checks the disabled mode end to end. The full test_obs suite is NOT expected to
  # pass here — most of it tests the very layer this build removes.
  # test_sim_rebalance checks that the rebalancing policy still sees its
  # LoadMap input with the layer compiled out.
  cmake -B build-noobs -S . -DPIMDS_OBS=OFF > /dev/null
  cmake --build build-noobs -j --target test_obs ablation_batch_drain \
    test_sim_rebalance
  ./build-noobs/tests/test_obs --gtest_filter='Message.*:DisabledMode.*'
  ./build-noobs/bench/ablation_batch_drain --threads 4 --ops 40 > /dev/null
  ./build-noobs/tests/test_sim_rebalance
  echo "obs-off: OK"
}
run_stage "PIMDS_OBS=OFF" stage_obs_off

stage_tsan() {
  echo "== tier-1: runtime tests under ThreadSanitizer =="
  cmake --preset tsan > /dev/null
  cmake --build build-tsan -j --target \
    test_runtime test_mailbox_batch test_spsc_ring test_obs test_telemetry \
    test_sentinel_refresh test_extensions
  # No suppressions: the runtime message path must be genuinely race-free.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_runtime
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mailbox_batch
  # The per-sender SPSC lanes and the multi-lane drain sweep are new
  # lock-free code; MultiLaneDrainStress is the dedicated TSan target.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_spsc_ring
  # The metrics/trace layer is all relaxed atomics + sharding; it must be
  # race-free too (counter sharding test hammers it from 8 threads).
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_obs
  # Telemetry plane: snapshot-merge vs external-registration churn, the
  # sampler thread, and the LoadMap's single-writer sketch under readers.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_telemetry
  # Live migration races: client threads vs the Section 4.2.1 hand-over,
  # including the ACTIVE AutoRebalancer choosing splits itself, and the
  # adaptive-combining flips racing the send path.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_sentinel_refresh
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_extensions
  # Epoch-based reclamation: the load/retire race (test_mpmc_ebr), the
  # lock-free baselines and the churn soak are the TSan targets for the
  # guard-entry fence pairing with the epoch scan.
  cmake --build build-tsan -j --target test_baselines test_mpmc_ebr \
    soak_reclamation
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_baselines
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mpmc_ebr
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/soak_reclamation --seconds 2
}
if [[ "$skip_tsan" == 0 ]]; then
  run_stage "ThreadSanitizer lane" stage_tsan
fi

stage_asan() {
  echo "== tier-1: reclamation and vault structures under ASan + LSan =="
  cmake --preset asan > /dev/null
  cmake --build build-asan -j --target test_baselines \
    test_mpmc_ebr soak_reclamation test_core_units test_extensions \
    test_core_structures test_mailbox_batch test_sim_structures \
    test_sim_rebalance test_checker_mutation test_schedule_explore \
    test_sentinel_refresh
  # LSan runs at exit by default under ASan: any node reclamation drops on
  # the floor (or frees twice) fails here even if no assertion notices.
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_baselines
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_mpmc_ebr
  # Vault-side node code (fat-node index, queue segments) and the fat-
  # message arena, whose pool blocks must be released at exit.
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_core_units
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_extensions
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_core_structures
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_mailbox_batch
  # The shared sequential list and skip list (core/sorted_list.hpp,
  # core/skip_list.*) allocate and free nodes by hand; test_sim_rebalance
  # drives extraction and ascending inserts through the migration runs.
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_sim_structures
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_sim_rebalance
  # The shared Section 4.2.1 vault handler (core/skip_list_vault.hpp): its
  # extraction, ascending inserts and deferred queues under the migration
  # mutants and the explorer (simulator) and live migrations (runtime).
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_checker_mutation
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_schedule_explore
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_sentinel_refresh
  # Cap the malloc quarantine: its default (256 MB) parks freed churn nodes
  # in RSS and would trip the soak's leak ceiling without any actual leak.
  ASAN_OPTIONS="halt_on_error=1:quarantine_size_mb=32" \
    ./build-asan/tests/soak_reclamation --seconds 2
}
if [[ "$skip_asan" == 0 ]]; then
  run_stage "ASan + LSan lane" stage_asan
fi

if [[ "${#failed[@]}" != 0 ]]; then
  echo "tier-1: FAILED stages:"
  printf '  - %s\n' "${failed[@]}"
  exit 1
fi
echo "tier-1: OK"
