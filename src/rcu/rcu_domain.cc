#include "rcu/rcu_domain.h"

#include <cassert>
#include <chrono>

#include "fault/fault_injector.h"
#include "sim/ref_model.h"
#include "sim/sim.h"
#include "sync/backoff.h"
#include "telemetry/monitor.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace prudence {

namespace {

std::uint64_t
steady_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

RcuDomain::RcuDomain(const RcuConfig& config)
    : readers_(config.max_reader_threads),
      gp_interval_(config.gp_interval)
{
    if (config.background_gp_thread) {
        running_.store(true, std::memory_order_release);
        gp_thread_ = std::thread([this] { gp_thread_main(); });
    }
}

RcuDomain::~RcuDomain()
{
    running_.store(false, std::memory_order_release);
    if (gp_thread_.joinable())
        gp_thread_.join();
}

void
RcuDomain::read_lock()
{
    ThreadSlot& slot = readers_.slot();
    if (slot.nesting++ == 0) {
        GpEpoch snapshot = gp_ctr_.load(std::memory_order_seq_cst);
        slot.value.store(snapshot, std::memory_order_seq_cst);
        // Order the slot publication before every read the critical
        // section performs; pairs with the detector's fence between
        // its counter increment and its slot scan.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        // Model registration strictly after the real publication: the
        // model may miss a just-started reader (conservative) but can
        // never hold one the grace-period scan could not also see.
        PRUDENCE_SIM_STMT(sim::model_on_reader_lock(
            reinterpret_cast<std::uintptr_t>(&slot), snapshot));
        PRUDENCE_TELEM_STAMP(section_start_ns);
        slot.section_start_ns = section_start_ns;
    }
}

void
RcuDomain::read_unlock()
{
    ThreadSlot& slot = readers_.slot();
    assert(slot.nesting > 0 && "read_unlock without read_lock");
    if (--slot.nesting == 0) {
        // Model unregistration strictly before the real quiescent
        // store: once the grace-period scan can observe this reader
        // gone, the model already agrees.
        PRUDENCE_SIM_STMT(sim::model_on_reader_unlock(
            reinterpret_cast<std::uintptr_t>(&slot)));
        if (slot.section_start_ns != 0) {
            PRUDENCE_TELEM_STMT(
                trace::MetricsRegistry::instance()
                    .histogram(trace::HistId::kReaderSectionNs)
                    .record(telemetry::steady_now_ns() -
                            slot.section_start_ns));
            slot.section_start_ns = 0;
        }
        // Release ordering: everything read inside the section
        // happens-before the detector observing us quiescent.
        slot.value.store(0, std::memory_order_release);
    }
}

bool
RcuDomain::in_reader_section() const
{
    return const_cast<RcuDomain*>(this)->readers_.slot().nesting > 0;
}

GpEpoch
RcuDomain::defer_epoch()
{
    // Order the caller's removal stores before the counter read, so a
    // grace period that begins after this read also begins after the
    // removal became visible.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return gp_ctr_.load(std::memory_order_seq_cst);
}

GpEpoch
RcuDomain::completed_epoch() const
{
    return completed_.load(std::memory_order_acquire);
}

void
RcuDomain::wait_for_readers(GpEpoch target)
{
    Backoff backoff;
    readers_.for_each_slot([&](const ThreadSlot& slot) {
        backoff.reset();
        for (;;) {
            GpEpoch v = slot.value.load(std::memory_order_seq_cst);
            if (v == 0 || v >= target)
                return;
            backoff.pause();
        }
    });
}

void
RcuDomain::advance()
{
    std::lock_guard<std::mutex> gp_lock(gp_mutex_);

    const std::uint64_t adv_start_ns = steady_now_ns();

    PRUDENCE_TRACE_SPAN(gp_span, trace::HistId::kGpNs,
                        trace::EventId::kGpSpan);

    // Phase 1: everything deferred before this increment has target
    // tags <= t1 - 1.
    GpEpoch t1 = gp_ctr_.fetch_add(1, std::memory_order_seq_cst) + 1;
    PRUDENCE_TRACE_EMIT(trace::EventId::kGpStart, t1);
    gp_span.set_args(t1 - 1);
    // Publish the in-flight target for the stall detector: timestamp
    // first so a detector that sees a nonzero target also sees a
    // plausible start time.
    gp_start_ns_.store(steady_now_ns(), std::memory_order_relaxed);
    gp_target_.store(t1, std::memory_order_release);
    // Injected grace-period delay: stretches this GP so the stall
    // detector (and OOM backoff paths) can be exercised on demand.
    PRUDENCE_FAULT_STALL(kGpDelay);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    wait_for_readers(t1);

    // Between the two reader waits: a delayed reader that raced phase
    // 1 is exactly what phase 2 exists to close.
    PRUDENCE_SIM_YIELD(kGpPhase);

    // Phase 2: closes the delayed-reader window (a thread that read
    // the counter before phase 1's increment but had not yet
    // published its slot when phase 1 scanned).
    GpEpoch t2 = gp_ctr_.fetch_add(1, std::memory_order_seq_cst) + 1;
    gp_target_.store(t2, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    wait_for_readers(t2);

    // Between the reader waits completing and completed_ publishing:
    // consumers polling completed_epoch() during this window must keep
    // treating the grace period as unfinished.
    PRUDENCE_SIM_YIELD(kGpPublish);

    gp_target_.store(0, std::memory_order_release);
    // Last completed grace period's wall duration: a telemetry probe
    // level ("how slow are grace periods right now"), complementing
    // the kGpNs histogram's distribution view.
    last_gp_ns_.store(steady_now_ns() - adv_start_ns,
                      std::memory_order_relaxed);
    grace_periods_.add();
    {
        std::lock_guard<std::mutex> lock(waiter_mutex_);
        completed_.store(t1 - 1, std::memory_order_release);
    }
    bump_completion_generation();
    waiter_cv_.notify_all();
}

void
RcuDomain::synchronize()
{
    assert(!in_reader_section() &&
           "synchronize() inside a read-side critical section deadlocks");
    GpEpoch tag = defer_epoch();
    if (is_safe(tag))
        return;
    if (!running_.load(std::memory_order_acquire)) {
        // No background detector: compute the grace period inline.
        while (!is_safe(tag))
            advance();
        return;
    }
    std::unique_lock<std::mutex> lock(waiter_mutex_);
    waiter_cv_.wait(lock, [&] { return is_safe(tag); });
}

void
RcuDomain::gp_thread_main()
{
    while (running_.load(std::memory_order_acquire)) {
        advance();
        if (gp_interval_.count() > 0) {
            // Governor pacing: each expedite level halves the pause
            // between grace periods (level 3 = 8x the GP rate); the
            // sliced pause picks up a mid-pause expedite immediately.
            paced_gp_pause(gp_interval_, running_);
        }
    }
}

GpEpoch
RcuDomain::gp_in_flight(std::uint64_t* start_ns) const
{
    GpEpoch target = gp_target_.load(std::memory_order_acquire);
    if (start_ns != nullptr)
        *start_ns = gp_start_ns_.load(std::memory_order_relaxed);
    return target;
}

std::vector<GpEpoch>
RcuDomain::reader_snapshots(GpEpoch target) const
{
    std::vector<GpEpoch> held;
    readers_.for_each_slot([&](const ThreadSlot& slot) {
        GpEpoch v = slot.value.load(std::memory_order_acquire);
        if (v != 0 && v < target)
            held.push_back(v);
    });
    return held;
}

RcuStatsSnapshot
RcuDomain::stats() const
{
    RcuStatsSnapshot s;
    s.grace_periods = grace_periods_.get();
    s.current_epoch = gp_ctr_.load(std::memory_order_relaxed);
    s.completed_epoch = completed_.load(std::memory_order_relaxed);
    s.last_gp_ns = last_gp_ns_.load(std::memory_order_relaxed);
    return s;
}

void
RcuDomain::register_telemetry_probes(telemetry::ProbeGroup& group,
                                     const std::string& prefix)
{
    group.add(prefix + "rcu.grace_periods", "count",
              [this] { return grace_periods_.get(); });
    group.add(prefix + "rcu.last_gp_ns", "ns", [this] {
        return last_gp_ns_.load(std::memory_order_relaxed);
    });
    group.add(prefix + "rcu.readers", "threads", [this] {
        std::uint64_t n = 0;
        readers_.for_each_slot([&](const ThreadSlot& slot) {
            if (slot.value.load(std::memory_order_relaxed) != 0)
                ++n;
        });
        return n;
    });
}

}  // namespace prudence
