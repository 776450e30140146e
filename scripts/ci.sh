#!/usr/bin/env bash
# One-stop CI gate: tier-1 build + tests, the sanitizer suite, perfbench
# smoke runs, a packet-path microbenchmark smoke run, the
# metrics-documentation lint, the perf-regression gate
# (innet_benchdiff vs the committed BENCH_*.json baselines), the telemetry
# bundle determinism check, and a JSON lint over every committed BENCH_*.json
# telemetry file. Any failure fails the whole run.
#
# Usage: scripts/ci.sh [--skip-asan]
#   --skip-asan   skip the (slow) AddressSanitizer build + test pass
set -u
cd "$(dirname "$0")/.."

skip_asan=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) skip_asan=1 ;;
    *) echo "ci.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

fail=0
step() {
  echo
  echo "==== ci: $1 ===="
}

step "tier-1 build"
cmake -B build -S . || fail=1
cmake --build build -j "$(nproc)" || fail=1

step "tier-1 tests"
ctest --test-dir build --output-on-failure -j "$(nproc)" || fail=1

if [ "$skip_asan" -eq 0 ]; then
  step "sanitizer suite (check_asan.sh)"
  scripts/check_asan.sh || fail=1
else
  step "sanitizer suite skipped (--skip-asan)"
fi

step "perfbench build + smoke runs (perfbench/run.py, every workload)"
# Nothing else compiles perfbench/, which drives src/ through its public API;
# each run must build, pass its own output checks and fail no operation.
for run in deploy_steady:0 forward_imix:0 flow_setup:0 deploy_steady:1; do
  workload=${run%:*}
  trace=${run#*:}
  last=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
      --trace "$trace" | tail -n 1)
  if printf '%s\n' "$last" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' 2>/dev/null; then
    echo "ok: perfbench $workload --trace $trace"
  else
    echo "ERROR: perfbench $workload --trace $trace did not report correct=true, failed=0" >&2
    echo "       last line: $last" >&2
    fail=1
  fi
done

step "packet-path microbenchmark smoke (checksum, packet copy/move, IPRewriter by frame size)"
# Only checks that the frame-size microbenchmarks run; their timings are not
# gated (perfbench is the wall-clock gate).
if [ ! -x build/bench/microbench_elements ]; then
  echo "ERROR: build/bench/microbench_elements missing — build step failed?" >&2
  fail=1
elif ./build/bench/microbench_elements --benchmark_filter='Checksum|Packet_CopyMove|IPRewriter' \
    --benchmark_min_time=0.01 >/dev/null; then
  echo "ok: microbench_elements packet-path benchmarks ran"
else
  echo "ERROR: microbench_elements packet-path benchmarks failed" >&2
  fail=1
fi

step "metrics documentation lint (check_metrics_docs.sh)"
scripts/check_metrics_docs.sh || fail=1

step "perf-regression diff tool self-test (innet_benchdiff --self-test)"
if [ ! -x build/tools/innet_benchdiff ]; then
  echo "ERROR: build/tools/innet_benchdiff missing — build step failed?" >&2
  fail=1
else
  ./build/tools/innet_benchdiff --self-test || fail=1
fi

step "perf-regression gate (check_bench_regression.sh vs committed baselines)"
# Includes controller_throughput: engine steps and verification-graph nodes
# per deploy at each installed-tenant checkpoint, with zero tolerance.
scripts/check_bench_regression.sh || fail=1

step "telemetry bundle determinism (two seeded innet_run bundles must be byte-identical)"
# The bundle carries metrics, trace, health, timeseries, INT, flight recorder
# and folded stacks, so this covers every section at once.
if [ ! -x build/tools/innet_run ]; then
  echo "ERROR: build/tools/innet_run missing — build step failed?" >&2
  fail=1
else
  bundle_ok=1
  ./build/tools/innet_run --config examples/batcher.click \
      --telemetry-out build/telemetry_run1.json >/dev/null || bundle_ok=0
  ./build/tools/innet_run --config examples/batcher.click \
      --telemetry-out build/telemetry_run2.json >/dev/null || bundle_ok=0
  if [ "$bundle_ok" -ne 1 ]; then
    echo "ERROR: innet_run --telemetry-out failed" >&2
    fail=1
  elif ! cmp -s build/telemetry_run1.json build/telemetry_run2.json; then
    echo "ERROR: telemetry bundles differ between two runs of the same config" >&2
    fail=1
  else
    echo "ok: telemetry bundle byte-identical across repeat runs"
  fi
fi

step "bench telemetry lint (json_lint over committed BENCH_*.json)"
if [ ! -x build/tools/json_lint ]; then
  echo "ERROR: build/tools/json_lint missing — build step failed?" >&2
  fail=1
else
  found=0
  for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    found=1
    if ./build/tools/json_lint "$f"; then
      echo "ok: $f"
    else
      echo "ERROR: malformed bench telemetry $f" >&2
      fail=1
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "ERROR: no committed BENCH_*.json found at the repo root" >&2
    fail=1
  fi
fi

step "inspector smoke test (innet_top over a committed bench snapshot)"
if [ ! -x build/tools/innet_top ]; then
  echo "ERROR: build/tools/innet_top missing — build step failed?" >&2
  fail=1
elif ./build/tools/innet_top BENCH_placement_scaling.json; then
  echo "ok: innet_top rendered BENCH_placement_scaling.json"
else
  echo "ERROR: innet_top failed on BENCH_placement_scaling.json" >&2
  fail=1
fi

step "dataplane profiling pipeline (bench + innet_top postmortem render)"
if [ ! -x build/bench/dataplane_profile ] || [ ! -x build/tools/innet_top ]; then
  echo "ERROR: build/bench/dataplane_profile or build/tools/innet_top missing — build step failed?" >&2
  fail=1
elif ! (cd build/bench && ./dataplane_profile >/dev/null) \
    || ! ./build/tools/innet_top build/bench/BENCH_dataplane_profile.json \
        | grep -q 'FLIGHT RECORDER ('; then
  echo "ERROR: dataplane profiling pipeline failed" >&2
  fail=1
elif ! cmp -s build/bench/BENCH_dataplane_profile.json BENCH_dataplane_profile.json; then
  echo "ERROR: regenerated BENCH_dataplane_profile.json differs from the committed snapshot" >&2
  echo "       (if the change is intentional: cp build/bench/BENCH_dataplane_profile.json .)" >&2
  fail=1
else
  echo "ok: dataplane_profile produced a postmortem bundle, innet_top rendered it, snapshot current"
fi

step "placement scaling bench (snapshot current)"
# Deterministic end to end (sim clock only), so the whole file must match the
# committed snapshot, not just its series. fig10_controller_scaling is not
# compared this way: its compile_ms/checking_ms columns are wall-clock.
if [ ! -x build/bench/placement_scaling ]; then
  echo "ERROR: build/bench/placement_scaling missing — build step failed?" >&2
  fail=1
elif ! (cd build/bench && ./placement_scaling >/dev/null); then
  echo "ERROR: placement_scaling exited non-zero" >&2
  fail=1
elif ! cmp -s build/bench/BENCH_placement_scaling.json BENCH_placement_scaling.json; then
  echo "ERROR: regenerated BENCH_placement_scaling.json differs from the committed snapshot" >&2
  echo "       (if the change is intentional: cp build/bench/BENCH_placement_scaling.json .)" >&2
  fail=1
else
  echo "ok: placement_scaling snapshot current"
fi

step "control-plane chaos bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/control_chaos ]; then
  echo "ERROR: build/bench/control_chaos missing — build step failed?" >&2
  fail=1
else
  chaos_ok=1
  (cd build/bench && ./control_chaos >/dev/null) || chaos_ok=0
  cp build/bench/BENCH_control_chaos.json build/bench/BENCH_control_chaos.run1.json 2>/dev/null
  (cd build/bench && ./control_chaos >/dev/null) || chaos_ok=0
  if [ "$chaos_ok" -ne 1 ]; then
    echo "ERROR: control_chaos reported a convergence failure" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_control_chaos.json build/bench/BENCH_control_chaos.run1.json; then
    echo "ERROR: BENCH_control_chaos.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_control_chaos.json BENCH_control_chaos.json; then
    echo "ERROR: regenerated BENCH_control_chaos.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_control_chaos.json .)" >&2
    fail=1
  else
    echo "ok: control_chaos converged, byte-identical across runs, snapshot current"
  fi
fi

step "INT conformance bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/int_conformance ]; then
  echo "ERROR: build/bench/int_conformance missing — build step failed?" >&2
  fail=1
else
  int_ok=1
  (cd build/bench && ./int_conformance >/dev/null) || int_ok=0
  cp build/bench/BENCH_int_conformance.json build/bench/BENCH_int_conformance.run1.json 2>/dev/null
  (cd build/bench && ./int_conformance >/dev/null) || int_ok=0
  if [ "$int_ok" -ne 1 ]; then
    echo "ERROR: int_conformance reported an attestation failure" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_int_conformance.json build/bench/BENCH_int_conformance.run1.json; then
    echo "ERROR: BENCH_int_conformance.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_int_conformance.json BENCH_int_conformance.json; then
    echo "ERROR: regenerated BENCH_int_conformance.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_int_conformance.json .)" >&2
    fail=1
  else
    echo "ok: int_conformance attested clean/violated phases, byte-identical across runs, snapshot current"
  fi
fi

step "federation failover bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/federation_failover ]; then
  echo "ERROR: build/bench/federation_failover missing — build step failed?" >&2
  fail=1
else
  fed_ok=1
  (cd build/bench && ./federation_failover >/dev/null) || fed_ok=0
  cp build/bench/BENCH_federation_failover.json build/bench/BENCH_federation_failover.run1.json 2>/dev/null
  cp build/bench/BENCH_federation_failover_telemetry.json build/bench/BENCH_federation_failover_telemetry.run1.json 2>/dev/null
  (cd build/bench && ./federation_failover >/dev/null) || fed_ok=0
  if [ "$fed_ok" -ne 1 ]; then
    echo "ERROR: federation_failover reported a convergence failure" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_federation_failover.json build/bench/BENCH_federation_failover.run1.json; then
    echo "ERROR: BENCH_federation_failover.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_federation_failover_telemetry.json build/bench/BENCH_federation_failover_telemetry.run1.json; then
    echo "ERROR: BENCH_federation_failover_telemetry.json (trace + fleet bundle) differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_federation_failover.json BENCH_federation_failover.json; then
    echo "ERROR: regenerated BENCH_federation_failover.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_federation_failover.json .)" >&2
    fail=1
  else
    echo "ok: federation_failover converged, byte-identical across runs (snapshot + telemetry bundle), snapshot current"
  fi
fi

echo
if [ "$fail" -ne 0 ]; then
  echo "ci: FAILED" >&2
  exit 1
fi
echo "ci: all checks passed"
