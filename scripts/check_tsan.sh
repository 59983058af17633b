#!/bin/sh
# Build the tree under ThreadSanitizer and run the tier-1 test suite.
# This is the race check for the observability layer: the tracepoints
# fire on every allocator and RCU hot path, so a green run covers the
# ring/registry concurrency.
#
# Usage: scripts/check_tsan.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "${JOBS:-2}"

# Second-order races surface more readily with histories retained.
TSAN_OPTIONS="${TSAN_OPTIONS:-history_size=5}" \
    ctest --preset tsan -j "${JOBS:-2}" "$@"
