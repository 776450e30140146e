#!/usr/bin/env bash
# Perf-regression gate: regenerate every bench that has a committed
# BENCH_*.json baseline at the repo root, then diff the fresh run's headline
# `series` section against the baseline with innet_benchdiff (direction-aware
# per-metric tolerances; see src/obs/benchdiff.h).
#
# The benches only put sim-clock-derived, seeded-deterministic values in
# their series, so any diff here is a behavior change: more retries under the
# same fault seed, a worse placement outcome, extra symexec steps. If the
# change is intentional, refresh the baseline:
#
#   cp <workdir>/BENCH_<name>.json .   (the failing diff prints the path)
#
# Usage: scripts/check_bench_regression.sh [BENCH_NAME ...]
#   With no arguments, gates every known bench. Exit 1 on any regression or
#   missing artifact.
set -u
cd "$(dirname "$0")/.."

benches=(placement_scaling fig10_controller_scaling controller_throughput control_chaos dataplane_profile int_conformance federation_failover)
if [ "$#" -gt 0 ]; then
  benches=("$@")
fi

if [ ! -x build/tools/innet_benchdiff ]; then
  echo "ERROR: build/tools/innet_benchdiff missing — build the tree first" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail=0
for name in "${benches[@]}"; do
  baseline="BENCH_${name}.json"
  binary="build/bench/${name}"
  if [ ! -f "$baseline" ]; then
    echo "ERROR: no committed baseline $baseline" >&2
    fail=1
    continue
  fi
  if [ ! -x "$binary" ]; then
    echo "ERROR: $binary missing — build the tree first" >&2
    fail=1
    continue
  fi
  echo "== $name =="
  if ! (cd "$workdir" && "$OLDPWD/$binary" >/dev/null); then
    echo "ERROR: $binary exited non-zero" >&2
    fail=1
    continue
  fi
  candidate="$workdir/BENCH_${name}.json"
  # Benches that promise side artifacts must actually produce them — a bench
  # that silently stopped writing its telemetry bundle would otherwise pass
  # the series diff while breaking the innet_top FLEET pipeline.
  if [ "$name" = "federation_failover" ] && [ ! -s "$workdir/BENCH_federation_failover_telemetry.json" ]; then
    echo "ERROR: $name did not write BENCH_federation_failover_telemetry.json" >&2
    fail=1
    continue
  fi
  if ./build/tools/innet_benchdiff "$baseline" "$candidate"; then
    echo "ok: $name matches its committed baseline"
  else
    status=$?
    if [ "$status" -eq 1 ]; then
      echo "ERROR: $name regressed against $baseline" >&2
      echo "       (intentional change? refresh with: cp $candidate .)" >&2
    else
      echo "ERROR: innet_benchdiff could not compare $name (exit $status)" >&2
    fi
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_bench_regression: FAILED" >&2
  exit 1
fi
echo "check_bench_regression: all benches match their committed baselines"
