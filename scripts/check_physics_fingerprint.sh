#!/bin/sh
# Physics fingerprint gate: every CPU plan must solve bitwise the same
# problem, and the per-cell temperature Newton must never fall back to
# bisection.
#
# Runs `bte_sim run --metrics` on the hotspot and corner scenarios
# (14x14 cells, 8 directions, 8 bands, 8 steps) under serial, threads:2,
# cells:2, bands:2 and hybrid:2x2.  Fails unless the printed
# `T in [...]` line is identical across the plans of each scenario and
# every run reports `bte.newton.bisections` 0.  Meant for CI and local
# pre-commit use; takes a few seconds.
set -eu
cd "$(dirname "$0")/.."

dune build bin/bte_sim.exe
sim=./_build/default/bin/bte_sim.exe
out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
for scenario in hotspot corner; do
  ref=""
  for backend in serial threads:2 cells:2 bands:2 hybrid:2x2; do
    "$sim" run --scenario "$scenario" --nx 14 --ny 14 --dirs 8 --bands 8 \
      --steps 8 --backend "$backend" --metrics > "$out" 2>&1 || {
      echo "check_physics_fingerprint: $scenario $backend run failed"
      cat "$out"
      exit 1
    }
    tline=$(grep '^T in \[' "$out" || true)
    bis=$(awk '$1 == "bte.newton.bisections" { print $3 }' "$out")
    echo "$scenario $backend: $tline | bisections ${bis:-missing}"
    if [ -z "$tline" ]; then
      echo "check_physics_fingerprint: $scenario $backend printed no T line"
      status=1
    elif [ -z "$ref" ]; then
      ref=$tline
    elif [ "$tline" != "$ref" ]; then
      echo "check_physics_fingerprint: $scenario $backend T line differs from serial"
      status=1
    fi
    if [ "${bis:-missing}" != "0" ]; then
      echo "check_physics_fingerprint: $scenario $backend bisected (${bis:-no counter})"
      status=1
    fi
  done
done

if [ "$status" -ne 0 ]; then
  exit "$status"
fi
echo "check_physics_fingerprint: T lines identical across plans, no Newton bisections"
