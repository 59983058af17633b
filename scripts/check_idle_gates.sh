#!/bin/sh
# Idle-gate check: an idle perturbation site (PRUDENCE_FAULT_POINT,
# PRUDENCE_PERTURB_POINT, PRUDENCE_MODEL_STMT) must cost one load of the
# process-wide gate, not a call. Disassembles every built
# libprudence_*.a and fails when any instruction calls (or tail-jumps
# to) one of the inline gate accessors over the constant-initialised
# injector (src/perturb/perturb.h): Injector::instance(),
# Injector::armed_mask(), Injector::active(), session_active() or
# site_bit(). The check is not vacuous: it also fails when no library
# references the gate object perturb::detail::g_injector at all, which
# is what a renamed gate would look like.
#
# Usage: scripts/check_idle_gates.sh [build-dir]
#   build-dir  an optimised build tree (default: build); build it first
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PATTERN='_ZNK?8prudence7perturb(8Injector(8instance|10armed_mask|6active)|14session_active|8site_bit)E'
GATE='_ZN8prudence7perturb6detail10g_injectorE'

libs=$(find "$BUILD_DIR/src" -name 'libprudence_*.a' | sort)
if [ -z "$libs" ]; then
    echo "check_idle_gates: no libprudence_*.a under $BUILD_DIR/src" >&2
    exit 2
fi

status=0
refs=0
for lib in $libs; do
    dump=$(objdump -dr --no-show-raw-insn "$lib")
    # -r prints each call's relocation on the line after it, which is
    # where an unlinked object names the call target. Label lines
    # ("... <sym>:") are definitions, not calls.
    hits=$(echo "$dump" | awk -v pat="$PATTERN" '
        / <[^>]*>:$/ { fn = $2; gsub(/[<>:]/, "", fn); next }
        $0 ~ pat { $1 = $1; print "  " fn ": " $0 }')
    if [ -n "$hits" ]; then
        echo "check_idle_gates: $lib calls an out-of-line gate:"
        echo "$hits"
        status=1
    fi
    n=$(echo "$dump" | grep -c "R_.*$GATE" || true)
    refs=$((refs + n))
done

if [ "$refs" -eq 0 ]; then
    echo "check_idle_gates: no library references $GATE;" \
        "the gate or this check's pattern is stale" >&2
    exit 1
fi
if [ "$status" -eq 0 ]; then
    echo "check_idle_gates: ok ($(echo "$libs" | wc -l) libraries," \
        "$refs inline gate loads, no out-of-line gate calls)"
fi
exit "$status"
