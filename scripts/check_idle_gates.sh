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
# The same pass guards the magazine hit paths (DESIGN.md §9 "Leaf hit
# path"), which no unit test can see:
#  - cache_alloc, cache_free (both allocators) and Prudence's
#    cache_free_deferred must be leaves: no call and no callee-saved
#    push anywhere in the symbol (every boundary is a tail jump to an
#    out-of-line slow path), and at least one ret;
#  - cache_alloc must hold a prefetch instruction (x86 prefetch*,
#    AArch64 prfm): the warm magazine hand-off;
#  - no library may reference a TLS init wrapper (_ZTH*/_ZTW*) of the
#    thread-lookup memos (ThreadCacheRegistry's t_tcr_last_*,
#    ThreadRegistry's t_tr_last_*), which must stay constinit; and some
#    library must load t_tcr_last_serial, or this check is stale.
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

# One function's instructions, by the mangled CLASS::METHOD prefix.
body() {  # LIB CLASS METHOD
    objdump -d --no-show-raw-insn "$BUILD_DIR/src/$1" |
        awk -v fn="${#2}$2${#3}$3"E '
        / <[^>]*>:$/ { inside = index($2, fn) > 0; next }
        inside { print }'
}
count() {  # MNEMONIC-REGEX (reads a body on stdin)
    grep -cE "^ *[0-9a-f]+:[[:space:]]+($1)([[:space:]]|\$)" || true
}
hits=""
for spec in core/libprudence_core.a:PrudenceAllocator:cache_alloc \
            core/libprudence_core.a:PrudenceAllocator:cache_free \
            core/libprudence_core.a:PrudenceAllocator:cache_free_deferred \
            slub/libprudence_slub.a:SlubAllocator:cache_alloc \
            slub/libprudence_slub.a:SlubAllocator:cache_free; do
    lib=${spec%%:*} rest=${spec#*:}
    cls=${rest%%:*} fn=${rest#*:}
    text=$(body "$lib" "$cls" "$fn")
    calls=$(echo "$text" | count 'call[a-z]*|bl|blr')
    pushes=$(echo "$text" | count 'push[a-z]*|stp[[:space:]]+x29')
    rets=$(echo "$text" | count 'ret[a-z]*')
    if [ "$rets" -eq 0 ] || [ "$calls" -ne 0 ] || [ "$pushes" -ne 0 ]; then
        echo "check_idle_gates: $cls::$fn in $lib is not a leaf hit" \
            "path ($calls calls, $pushes pushes, $rets rets)" >&2
        status=1
    fi
    if [ "$fn" = cache_alloc ]; then
        n=$(echo "$text" | count 'prefetch[a-z0-9]*|prfm')
        if [ "$n" -eq 0 ]; then
            echo "check_idle_gates: $cls::$fn in $lib has no" \
                "prefetch; the warm magazine hand-off is gone" >&2
            status=1
        fi
        hits="$hits $n"
    fi
done

MEMO='N8prudence6detail[0-9]+t_(tcr|tr)_last_'
wrappers=""
memo_loads=0
for lib in $libs; do
    relocs=$(objdump -dr "$lib")
    w=$(echo "$relocs" | grep -oE "_ZT[HW]$MEMO[a-z_]*E" | sort -u)
    [ -n "$w" ] && wrappers="$wrappers $lib: $(echo $w)"
    n=$(echo "$relocs" |
        grep -c "R_.*_ZN8prudence6detail17t_tcr_last_serialE" || true)
    memo_loads=$((memo_loads + n))
done
if [ -n "$wrappers" ]; then
    echo "check_idle_gates: thread-lookup memo read through a TLS" \
        "init wrapper (not constinit):$wrappers" >&2
    status=1
fi
if [ "$memo_loads" -eq 0 ]; then
    echo "check_idle_gates: no library loads t_tcr_last_serial;" \
        "the memo or this check's pattern is stale" >&2
    status=1
fi

if [ "$refs" -eq 0 ]; then
    echo "check_idle_gates: no library references $GATE;" \
        "the gate or this check's pattern is stale" >&2
    exit 1
fi
if [ "$status" -eq 0 ]; then
    echo "check_idle_gates: ok ($(echo "$libs" | wc -l) libraries," \
        "$refs inline gate loads, no out-of-line gate calls," \
        "leaf hit paths, $memo_loads memo loads, cache_alloc" \
        "prefetches:$hits)"
fi
exit "$status"
