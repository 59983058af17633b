/**
 * @file
 * The tracepoint runtime: a process-wide enable switch, per-thread
 * lock-free event rings, and the macros the instrumented subsystems
 * use.
 *
 * Cost model:
 *  - Tracing not started: one relaxed atomic load per tracepoint (the
 *    enabled() check), nothing else.
 *  - Tracing started: one steady-clock read plus one 32-byte store
 *    into the calling thread's ring (~20 ns); spans add a second
 *    clock read and a histogram increment.
 *
 * Rings are owned by a global registry and are never deallocated
 * (threads may outlive sessions and vice versa); start() recycles
 * them by clearing. Ring merges (export) require writer quiescence —
 * every benchmark exports after joining its workers.
 */
#ifndef PRUDENCE_TRACE_TRACER_H
#define PRUDENCE_TRACE_TRACER_H

#include <atomic>
#include <cstdint>

#include "trace/metrics_registry.h"
#include "trace/trace_event.h"
#include "trace/trace_ring.h"

namespace prudence::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while a trace session is running (relaxed; hot-path gate).
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Begin a session: clear every ring and every registry metric, reset
 * the session clock, then enable the tracepoints. @p ring_capacity
 * applies to rings created after this call (existing rings keep
 * their size).
 */
void start(std::size_t ring_capacity = std::size_t{1} << 15);

/// Disable the tracepoints (recorded data stays for export).
void stop();

/// Nanoseconds since the current session started.
std::uint64_t now_ns();

/// This thread's ring (created and registered on first use).
TraceRing& local_ring();

/// Record an instant or counter event.
void emit(EventId id, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

/// Record a span event that began at @p start_ns (session clock).
void emit_span(EventId id, std::uint64_t start_ns,
               std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

/// Visit every registered ring with its thread index.
/// @param fn callable(std::uint32_t tid, const TraceRing&).
/// Safe while writers run only for pushed()/dropped(); snapshot()
/// needs quiescence.
template <typename Fn> void for_each_ring(Fn&& fn);

namespace detail {
std::size_t ring_count();
const TraceRing* ring_at(std::size_t i);
}  // namespace detail

template <typename Fn>
void
for_each_ring(Fn&& fn)
{
    std::size_t n = detail::ring_count();
    for (std::size_t i = 0; i < n; ++i) {
        if (const TraceRing* r = detail::ring_at(i))
            fn(static_cast<std::uint32_t>(i), *r);
    }
}

/// Events lost to ring overwrite across all threads.
std::uint64_t total_dropped();

/// Events currently retained across all threads.
std::uint64_t total_recorded();

/**
 * RAII latency span: on destruction records the elapsed nanoseconds
 * into a well-known histogram and emits a span event. Inert when
 * tracing is disabled (one relaxed load at construction).
 */
class TimerSpan
{
  public:
    TimerSpan(HistId hist, EventId event)
        : hist_(hist), event_(event),
          start_ns_(enabled() ? now_ns() : kDisarmed)
    {
    }

    ~TimerSpan()
    {
        if (start_ns_ == kDisarmed)
            return;
        std::uint64_t dur = now_ns() - start_ns_;
        MetricsRegistry::instance().histogram(hist_).record(dur);
        emit_span(event_, start_ns_, arg0_, arg1_);
    }

    TimerSpan(const TimerSpan&) = delete;
    TimerSpan& operator=(const TimerSpan&) = delete;

    /// Attach payload reported with the span event.
    void set_args(std::uint64_t arg0, std::uint64_t arg1 = 0)
    {
        arg0_ = arg0;
        arg1_ = arg1;
    }

    /// True when the span is actually measuring.
    bool armed() const { return start_ns_ != kDisarmed; }

  private:
    static constexpr std::uint64_t kDisarmed = ~std::uint64_t{0};

    HistId hist_;
    EventId event_;
    std::uint64_t start_ns_;
    std::uint64_t arg0_ = 0;
    std::uint64_t arg1_ = 0;
};

}  // namespace prudence::trace

// ---------------------------------------------------------------------
// Tracepoint macros — the only spelling instrumented code should use.
// ---------------------------------------------------------------------

/// Instant/counter tracepoint: PRUDENCE_TRACE_EMIT(id[, arg0[, arg1]]).
#define PRUDENCE_TRACE_EMIT(...)                                       \
    do {                                                               \
        if (::prudence::trace::enabled())                              \
            ::prudence::trace::emit(__VA_ARGS__);                      \
    } while (0)

/// Declare a latency span covering the rest of the enclosing scope.
#define PRUDENCE_TRACE_SPAN(var, hist, event)                          \
    ::prudence::trace::TimerSpan var(hist, event)

/// Capture the session clock into `var` (0 when tracing is off).
#define PRUDENCE_TRACE_CLOCK(var)                                      \
    std::uint64_t var =                                                \
        ::prudence::trace::enabled() ? ::prudence::trace::now_ns() : 0

/// Statement executed only while tracing is running.
#define PRUDENCE_TRACE_STMT(stmt)                                      \
    do {                                                               \
        if (::prudence::trace::enabled()) {                            \
            stmt;                                                      \
        }                                                              \
    } while (0)

#endif  // PRUDENCE_TRACE_TRACER_H
