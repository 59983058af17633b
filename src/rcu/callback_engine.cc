#include "rcu/callback_engine.h"

#include <algorithm>
#include <mutex>

#include "perturb/perturb.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace prudence {

CallbackEngine::CallbackEngine(GracePeriodDomain& domain,
                               const CallbackEngineConfig& config)
    : domain_(domain),
      config_(config),
      cpu_registry_(config.cpus == 0 ? 1 : config.cpus)
{
    queues_.reserve(cpu_registry_.max_cpus());
    for (unsigned i = 0; i < cpu_registry_.max_cpus(); ++i)
        queues_.push_back(std::make_unique<CpuQueue>());

    if (config_.background_drainer) {
        running_.store(true, std::memory_order_release);
        drainer_ = std::thread([this] { drainer_main(); });
    }
}

CallbackEngine::~CallbackEngine()
{
    running_.store(false, std::memory_order_release);
    if (drainer_.joinable())
        drainer_.join();
    drain_all();
}

void
CallbackEngine::call(CallbackFn fn, void* ctx, void* arg)
{
    GpEpoch epoch = domain_.defer_epoch();
    PRUDENCE_TELEM_STAMP(defer_ts);
    unsigned cpu = cpu_registry_.cpu_id();
    CpuQueue& q = *queues_[cpu];
    {
        std::lock_guard<SpinLock> guard(q.lock);
        q.queue.push_back({fn, ctx, arg, epoch, defer_ts});
    }
    queued_.add();
    backlog_.add();
    PRUDENCE_TRACE_EMIT(trace::EventId::kCbEnqueue, epoch, cpu);

    if (config_.inline_batch_limit > 0)
        process_cpu(cpu, config_.inline_batch_limit);
}

std::size_t
CallbackEngine::process_cpu(unsigned cpu, std::size_t limit)
{
    CpuQueue& q = *queues_[cpu];
    GpEpoch completed = domain_.completed_epoch();

    // Collect a ready batch under the lock; invoke outside it so a
    // callback may re-enter the engine.
    Callback batch[64];
    std::size_t invoked_total = 0;
    PRUDENCE_TRACE_CLOCK(drain_start);
    while (invoked_total < limit) {
        std::size_t n = 0;
        {
            std::lock_guard<SpinLock> guard(q.lock);
            while (n < 64 && invoked_total + n < limit &&
                   !q.queue.empty() &&
                   q.queue.front().epoch <= completed) {
                batch[n++] = q.queue.front();
                q.queue.pop_front();
            }
        }
        if (n == 0)
            break;
        // Between collecting the batch and invoking it: the callbacks
        // are already off the queue, so a concurrent drain_all or
        // engine teardown must still account for them via backlog_.
        PRUDENCE_PERTURB_POINT(kCbHandOff);
        // One clock read covers the whole batch: callback ages are
        // milliseconds-scale (a grace period at minimum), so the
        // intra-batch skew is noise.
        PRUDENCE_TELEM_STMT({
            std::uint64_t now = telemetry::steady_now_ns();
            auto& hist = trace::MetricsRegistry::instance().histogram(
                trace::HistId::kDeferredAgeNs);
            for (std::size_t i = 0; i < n; ++i) {
                if (batch[i].defer_ts != 0 && now > batch[i].defer_ts)
                    hist.record(now - batch[i].defer_ts);
            }
        });
        for (std::size_t i = 0; i < n; ++i)
            batch[i].fn(batch[i].ctx, batch[i].arg);
        invoked_.add(n);
        backlog_.sub(static_cast<std::int64_t>(n));
        invoked_total += n;
    }
    if (invoked_total > 0) {
        PRUDENCE_TRACE_STMT({
            trace::emit_span(trace::EventId::kCbBatchDrain, drain_start,
                             invoked_total, cpu);
            trace::MetricsRegistry::instance()
                .histogram(trace::HistId::kCbDrainBatch)
                .record(invoked_total);
        });
    }
    return invoked_total;
}

std::size_t
CallbackEngine::process_ready(std::size_t limit_per_cpu)
{
    std::size_t total = 0;
    for (unsigned cpu = 0; cpu < queues_.size(); ++cpu)
        total += process_cpu(cpu, limit_per_cpu);
    return total;
}

void
CallbackEngine::drain_all()
{
    // Everything queued before this point becomes safe after one
    // synchronize(); anything a callback re-queues is caught by the
    // loop.
    while (backlog_.get() > 0) {
        domain_.synchronize();
        process_ready(static_cast<std::size_t>(-1));
    }
}

void
CallbackEngine::drainer_main()
{
    while (running_.load(std::memory_order_acquire)) {
        if (PRUDENCE_FAULT_POINT(kDrainerStall)) {
            // Injected lost tick: the drainer sleeps (the site's stall,
            // already slept by the failing arrival, then one tick)
            // without processing, growing the backlog exactly like a
            // descheduled softirq would.
            std::this_thread::sleep_for(config_.tick);
            continue;
        }
        // Governor pacing: the domain's paced batch floor widens the
        // per-tick batch (0 = engine default). The probe-driven
        // expedite below can widen it further.
        std::size_t limit =
            std::max(config_.batch_limit, domain_.paced_batch_limit());
        if (config_.pressure_probe &&
            config_.pressure_probe() > config_.expedite_threshold) {
            if (PRUDENCE_FAULT_POINT(kExpediteDrop)) {
                // Injected dropped expedite: memory pressure was
                // observed but the tick proceeds at the normal batch
                // limit, as if the pressure signal were lost.
                dropped_expedites_.add();
            } else {
                limit = config_.expedited_batch_limit;
                expedited_ticks_.add();
                PRUDENCE_TRACE_EMIT(
                    trace::EventId::kCbExpedite,
                    static_cast<std::uint64_t>(backlog_.get()));
            }
        }
        process_ready(limit);
        std::this_thread::sleep_for(config_.tick);
    }
}

CallbackEngineStats
CallbackEngine::stats() const
{
    CallbackEngineStats s;
    s.queued = queued_.get();
    s.invoked = invoked_.get();
    s.backlog = backlog_.get();
    s.peak_backlog = backlog_.peak();
    s.expedited_ticks = expedited_ticks_.get();
    s.dropped_expedites = dropped_expedites_.get();
    return s;
}

}  // namespace prudence
