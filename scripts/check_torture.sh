#!/bin/sh
# Build a preset and run the prudtorture fault-injection harness plus
# the tier-1 test suite. The torture run mixes readers, updaters and
# OOM-stress threads over the Prudence allocator while injecting
# faults at every seeded site, then checks the reclamation invariants
# (no lost callbacks, no use-after-reclaim, accounting consistent at
# quiesce). The default seed is fixed so failures reproduce.
#
# Usage: scripts/check_torture.sh [preset] [extra prudtorture args...]
#   preset    default | asan | tsan   (default: default)
# Environment:
#   DURATION  torture run length in seconds      (default: 20)
#   SEED      fault seed                         (default: 42)
#   JOBS      parallel build/test jobs           (default: 2)
set -eu

cd "$(dirname "$0")/.."

PRESET="${1:-default}"
[ $# -gt 0 ] && shift

case "$PRESET" in
default) BUILD_DIR=build ;;
*) BUILD_DIR="build-$PRESET" ;;
esac

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-2}"

ctest --preset "$PRESET" -j "${JOBS:-2}"

"$BUILD_DIR/tools/prudtorture" \
    --duration="${DURATION:-20}" \
    --fault-seed="${SEED:-42}" \
    "$@"

# Second pass with the thread-local magazine layer disabled: the
# per-operation paths (per-op epoch tagging, shared-counter stats)
# must survive the same fault schedule.
"$BUILD_DIR/tools/prudtorture" \
    --duration="${DURATION:-20}" \
    --fault-seed="${SEED:-42}" \
    --magazine-capacity=0 \
    "$@"

# Third pass with the per-CPU page caches disabled: slab grow/release
# takes the legacy single-lock buddy path, so checked-free, the OOM
# ladder and quiesce accounting must hold without the PCP drain hook.
"$BUILD_DIR/tools/prudtorture" \
    --duration="${DURATION:-20}" \
    --fault-seed="${SEED:-42}" \
    --pcp-high-watermark=0 \
    "$@"

# Fourth pass with the lock-free per-CPU layer disabled (DESIGN.md
# §14): the legacy spinlock caches and locked magazine refill/flush
# must survive the same fault schedule, proving the toggle-off leg
# stays a first-class citizen.
"$BUILD_DIR/tools/prudtorture" \
    --duration="${DURATION:-20}" \
    --fault-seed="${SEED:-42}" \
    --lockfree-pcpu=0 \
    "$@"

# Final pass with the adaptive reclamation governor driving the
# pacing/admission/trim actuators while kGovernorAction faults refuse
# a quarter of its dispatches: held actions must retry until they
# land, the OOM ladder must hand off into the governor's terminal
# level, and the fault-decision audit must stay clean with the
# control loop in the picture. (The passes above are the
# governor-off legs.)
"$BUILD_DIR/tools/prudtorture" \
    --duration="${DURATION:-20}" \
    --fault-seed="${SEED:-42}" \
    --governor \
    "$@"
