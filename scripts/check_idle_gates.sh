#!/bin/sh
# Idle-gate check: an idle PRUDENCE_SIM_* or PRUDENCE_FAULT_* site must
# cost one load of the process-wide gate, not a call. Disassembles every
# built libprudence_*.a and fails when any instruction calls (or
# tail-jumps to) sim::session_active(), sim::Scheduler::instance() or
# fault::FaultInjector::instance(); all three are inline over
# constant-initialised namespace-scope objects (src/sim/sim.h,
# src/fault/fault_injector.h).
#
# Usage: scripts/check_idle_gates.sh [build-dir]
#   build-dir  an optimised build tree (default: build); build it first
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PATTERN='_ZN8prudence3sim14session_activeEv|_ZN8prudence3sim9Scheduler8instanceEv|_ZN8prudence5fault13FaultInjector8instanceEv'

libs=$(find "$BUILD_DIR/src" -name 'libprudence_*.a' | sort)
if [ -z "$libs" ]; then
    echo "check_idle_gates: no libprudence_*.a under $BUILD_DIR/src" >&2
    exit 2
fi

status=0
for lib in $libs; do
    # -r prints each call's relocation on the line after it, which is
    # where an unlinked object names the call target. Label lines
    # ("... <sym>:") are definitions, not calls.
    hits=$(objdump -dr --no-show-raw-insn "$lib" | awk -v pat="$PATTERN" '
        / <[^>]*>:$/ { fn = $2; gsub(/[<>:]/, "", fn); next }
        $0 ~ pat { $1 = $1; print "  " fn ": " $0 }')
    if [ -n "$hits" ]; then
        echo "check_idle_gates: $lib calls an out-of-line gate:"
        echo "$hits"
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "check_idle_gates: ok ($(echo "$libs" | wc -l) libraries," \
        "no out-of-line gate calls)"
fi
exit "$status"
