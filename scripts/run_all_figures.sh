#!/usr/bin/env sh
# Regenerates every paper figure and ablation table (stdout is the report;
# redirect to bench_output.txt to keep it).
#
# usage: run_all_figures.sh [BUILD_DIR]
#
# Environment:
#   WEBCACHE_BENCH_SCALE   scales the request volume (e.g. 0.1 for quick runs)
#   WEBCACHE_THREADS       run_sweep worker threads, read by every bench
#                          (results are bitwise identical regardless)
#   WEBCACHE_METRICS_OUT_DIR  when set, each bench also writes its
#                          "webcache-metrics/1" JSON export(s) into this
#                          directory as <bench>.metrics[.<label>].json
set -eu

BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: '$BUILD_DIR/bench' does not exist." >&2
  echo "Build the bench harnesses first:" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

found=0
for b in "$BUILD_DIR"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  found=$((found + 1))
  echo "===== $b ====="
  if [ -n "${WEBCACHE_METRICS_OUT_DIR:-}" ]; then
    mkdir -p "$WEBCACHE_METRICS_OUT_DIR"
    # Benches without an export path (the ablations) ignore it.
    "$b" --metrics-out "$WEBCACHE_METRICS_OUT_DIR/$(basename "$b").metrics.json"
  else
    "$b"
  fi
done

if [ "$found" -eq 0 ]; then
  echo "error: no bench executables found under '$BUILD_DIR/bench'." >&2
  exit 1
fi
echo "ran $found bench binaries from $BUILD_DIR/bench"
