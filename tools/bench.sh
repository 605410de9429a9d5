#!/usr/bin/env bash
# Runs the full bench suite in JSON mode and collects the perf
# trajectory for this checkout: every harness writes BENCH_<name>.json
# into OUTDIR (default: the repo root, where the committed trajectory
# points live). Diff these files across commits to track perf instead
# of eyeballing tables.
#
# Usage: tools/bench.sh [OUTDIR]
#
# Table/figure harnesses that measure simulated speedups (fig9, which
# also prints Figure 10's retry ratios, fig11, ...) are deterministic;
# micro_commit and micro_detection measure wall time and should be
# compared run-over-run on the same machine only.
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUTDIR="${1:-$REPO_ROOT}"
BENCH_DIR="$REPO_ROOT/build/bench"

# Configure-if-needed: a missing build tree is created on the spot; a
# tree configured for a *different* source checkout (a moved or copied
# repo) is refused with a clear message — cmake's own diagnostic for
# that situation is cryptic.
CACHE="$REPO_ROOT/build/CMakeCache.txt"
if [ -f "$CACHE" ]; then
  HOME_DIR="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$CACHE")"
  if [ -n "$HOME_DIR" ] && [ "$HOME_DIR" != "$REPO_ROOT" ]; then
    echo "bench.sh: build/ was configured for '$HOME_DIR', not this checkout" >&2
    echo "bench.sh: ($REPO_ROOT). Delete build/ and re-run." >&2
    exit 1
  fi
else
  echo "bench.sh: no configured build tree — running cmake first"
  cmake -B "$REPO_ROOT/build" -S "$REPO_ROOT" >/dev/null
fi
if [ ! -d "$BENCH_DIR" ]; then
  echo "bench.sh: building bench harnesses"
  cmake --build "$REPO_ROOT/build" -j "$(nproc)"
fi

mkdir -p "$OUTDIR"

for B in micro_commit fig9_speedup fig11_misses \
         table5_patterns table6_inputs ablation_fallback \
         micro_detection; do
  if [ ! -x "$BENCH_DIR/$B" ]; then
    echo "bench.sh: skipping $B (not built)" >&2
    continue
  fi
  echo "== $B =="
  "$BENCH_DIR/$B" --json-out="$OUTDIR/BENCH_$B.json" >/dev/null
done

echo "bench.sh: trajectory written to $OUTDIR/BENCH_*.json"
