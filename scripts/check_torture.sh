#!/bin/sh
# Build a preset and run the prudtorture harness (DESIGN.md §8): the
# tier-1 test suite, then the fault passes, then the schedule passes.
#
# Fault passes mix readers, updaters and OOM-stress threads over the
# Prudence allocator while the fault sites fire under a fixed seed,
# then check the reclamation invariants (no lost callbacks, no
# use-after-reclaim, accounting consistent at quiesce, decisions equal
# to their offline replay). Five passes cover the default config plus
# the magazines-off, pcp-off, lockfree-off and governor legs.
#
# Schedule passes first run the self-test, which proves the seed sweep
# still convicts the deliberately reintroduced interleaving bugs
# (stale spill tag, unprotected depot pop) and passes clean on the
# unmodified code; then four sweeps cover the default config plus the
# magazines-off, pcp-off and lockfree-off ablations. A failing sweep
# leaves a JSON report (seed, site mask, shrunk minimal mask, first
# violation, replay line) in REPORT_DIR for upload as a CI artifact.
#
# Usage: scripts/check_torture.sh [preset] [extra prudtorture args...]
#   preset      default | asan | tsan | nolockfree  (default: default)
# Environment:
#   PASSES      which of "test fault schedule" to run (default: all)
#   DURATION    fault-pass run length in seconds    (default: 20)
#   SEED        fault seed                          (default: 42)
#   SEEDS       schedule sweep width per config     (default: 20)
#   OPS         updates per updater per seed        (default: 300)
#   JOBS        parallel build/test jobs            (default: 2)
#   REPORT_DIR  where failing-run reports go        (default: build dir)
set -eu

cd "$(dirname "$0")/.."

PRESET="${1:-default}"
[ $# -gt 0 ] && shift

case "$PRESET" in
default) BUILD_DIR=build ;;
*) BUILD_DIR="build-$PRESET" ;;
esac

PASSES="${PASSES:-test fault schedule}"
REPORT_DIR="${REPORT_DIR:-$BUILD_DIR}"
mkdir -p "$REPORT_DIR"
TORTURE="$BUILD_DIR/tools/prudtorture"

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-2}"

case " $PASSES " in *" test "*)
    ctest --preset "$PRESET" -j "${JOBS:-2}" ;;
esac

fault() {
    echo "== fault pass: ${*:-default config} =="
    "$TORTURE" --duration="${DURATION:-20}" --fault-seed="${SEED:-42}" \
        --report="$REPORT_DIR/torture-fault.json" "$@"
}

schedule() {
    name="$1"
    shift
    echo "== schedule sweep: $name =="
    "$TORTURE" --seeds="${SEEDS:-20}" --ops="${OPS:-300}" \
        --report="$REPORT_DIR/torture-$name.json" "$@"
}

case " $PASSES " in *" fault "*)
    fault "$@"
    # The per-operation paths (per-op epoch tagging, shared-counter
    # stats) must survive the same fault schedule.
    fault --magazine-capacity=0 "$@"
    # Slab grow/release takes the legacy single-lock buddy path, so
    # checked-free, the OOM ladder and quiesce accounting must hold
    # without the PCP drain hook.
    fault --pcp-high-watermark=0 "$@"
    # The legacy spinlock caches and locked magazine refill/flush
    # (DESIGN.md §14) stay a first-class leg.
    fault --lockfree-pcpu=0 "$@"
    # The governor drives pacing/admission/trim while governor_action
    # faults refuse a quarter of its dispatches: held actions must
    # retry until they land, the OOM ladder must hand off into the
    # governor's terminal level, and the decision audit must stay
    # clean with the control loop in the picture.
    fault --governor "$@"
    ;;
esac

case " $PASSES " in *" schedule "*)
    schedule selftest --self-test "$@"
    schedule default "$@"
    schedule nomag --magazine-capacity=0 "$@"
    schedule nopcp --pcp-high-watermark=0 "$@"
    schedule nolockfree --lockfree-pcpu=0 "$@"
    ;;
esac

echo "check_torture: passes [$PASSES] clean"
