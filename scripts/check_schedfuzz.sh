#!/bin/sh
# Build a preset and run the schedfuzz deterministic-schedule sweeps
# (DESIGN.md §11). First the self-test proves the fuzzer can still
# catch deliberately-reintroduced interleaving bugs (stale spill tag,
# unprotected depot pop) and that the clean code passes the same
# sweep; then four real sweeps cover the default config plus the
# magazines-off, pcp-off and lockfree-off ablations, so the per-op
# paths see the same schedule perturbation.
#
# Any failing sweep leaves a JSON report (seed, yield-site mask,
# shrunk minimal mask, first violation) in REPORT_DIR for upload as a
# CI artifact; the report's "seed"/"shrunk_sites" fields are a ready
# replay command line.
#
# Usage: scripts/check_schedfuzz.sh [preset] [extra schedfuzz args...]
#   preset      default | asan | tsan          (default: default)
# Environment:
#   SEEDS       sweep width per config          (default: 20)
#   OPS         deferrals per updater per seed  (default: 300)
#   JOBS        parallel build jobs             (default: 2)
#   REPORT_DIR  where failing-seed reports go   (default: build dir)
set -eu

cd "$(dirname "$0")/.."

PRESET="${1:-default}"
[ $# -gt 0 ] && shift

case "$PRESET" in
default) BUILD_DIR=build ;;
*) BUILD_DIR="build-$PRESET" ;;
esac

SEEDS="${SEEDS:-20}"
OPS="${OPS:-300}"
REPORT_DIR="${REPORT_DIR:-$BUILD_DIR}"
mkdir -p "$REPORT_DIR"

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-2}"

echo "== schedfuzz self-test (bug must be found, clean code clean) =="
"$BUILD_DIR/tools/schedfuzz" --self-test --seeds="$SEEDS" --ops="$OPS" \
    --report="$REPORT_DIR/schedfuzz-selftest.json" "$@"

echo "== schedfuzz sweep: default config =="
"$BUILD_DIR/tools/schedfuzz" --seeds="$SEEDS" --ops="$OPS" \
    --report="$REPORT_DIR/schedfuzz-default.json" "$@"

echo "== schedfuzz sweep: magazines off =="
"$BUILD_DIR/tools/schedfuzz" --seeds="$SEEDS" --ops="$OPS" \
    --magazine-capacity=0 \
    --report="$REPORT_DIR/schedfuzz-nomag.json" "$@"

echo "== schedfuzz sweep: per-CPU page caches off =="
"$BUILD_DIR/tools/schedfuzz" --seeds="$SEEDS" --ops="$OPS" \
    --pcp-high-watermark=0 \
    --report="$REPORT_DIR/schedfuzz-nopcp.json" "$@"

echo "== schedfuzz sweep: lock-free per-CPU layer off =="
"$BUILD_DIR/tools/schedfuzz" --seeds="$SEEDS" --ops="$OPS" \
    --lockfree-pcpu=0 \
    --report="$REPORT_DIR/schedfuzz-nolockfree.json" "$@"

echo "schedfuzz: self-test + 4x$SEEDS-seed sweeps clean"
