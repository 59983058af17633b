/**
 * @file
 * Telemetry runtime: the process-wide activity gate and the stamp
 * macros instrumented subsystems use.
 *
 * Cost model (mirrors the trace-layer discipline, DESIGN.md §5):
 *  - No Monitor running and no trace session: one relaxed atomic load
 *    per stamp site, nothing else.
 *  - A Monitor running: stamp sites take one steady-clock read; the
 *    sampling itself happens on the monitor's own thread.
 *
 * Clock: stamps are raw steady-clock nanoseconds (process-wide, not
 * session-relative). Consumers only ever take differences, so the
 * base does not matter — but every stamp site in one build must use
 * PRUDENCE_TELEM_STAMP so the bases agree.
 */
#ifndef PRUDENCE_TELEMETRY_TELEMETRY_H
#define PRUDENCE_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>

#include "trace/tracer.h"

namespace prudence::telemetry {

namespace detail {
/// Number of running Monitors (relaxed; hot-path gate).
extern std::atomic<int> g_active_monitors;
}  // namespace detail

/// Steady-clock nanoseconds (process-wide monotonic timebase).
std::uint64_t steady_now_ns();

/// True while at least one Monitor is sampling.
inline bool
active()
{
    return detail::g_active_monitors.load(std::memory_order_relaxed) > 0;
}

/// True when defer/section stamps should be taken: a Monitor is
/// sampling (age histograms feed its probes) or a trace session is
/// recording (latent-residency reporting predates telemetry).
inline bool
clock_armed()
{
    return active() || trace::enabled();
}

/// Steady-clock stamp when armed, 0 otherwise (0 = "not stamped";
/// consumers skip age accounting for unstamped objects).
inline std::uint64_t
stamp_now_ns()
{
    return clock_armed() ? steady_now_ns() : 0;
}

}  // namespace prudence::telemetry

// ---------------------------------------------------------------------
// Stamp macros — the only spelling instrumented code should use.
// ---------------------------------------------------------------------

/// Capture a defer/section timestamp into `var` (0 when idle).
#define PRUDENCE_TELEM_STAMP(var)                                      \
    std::uint64_t var = ::prudence::telemetry::stamp_now_ns()

/// Statement executed only while a Monitor is running.
#define PRUDENCE_TELEM_STMT(stmt)                                      \
    do {                                                               \
        if (::prudence::telemetry::active()) {                         \
            stmt;                                                      \
        }                                                              \
    } while (0)

#endif  // PRUDENCE_TELEMETRY_TELEMETRY_H
