/**
 * @file
 * User-space RCU: epoch-based read-side critical sections plus a
 * grace-period detector.
 *
 * The design follows the "general purpose" (memory-barrier) variant of
 * user-level RCU (Desnoyers et al.): readers snapshot a global
 * grace-period counter into a per-thread slot at the outermost
 * read_lock(), and the detector advances by incrementing the counter
 * and waiting — in TWO phases, which closes the delayed-reader window
 * — until every registered thread is either quiescent (slot == 0) or
 * running with a snapshot taken after the increment.
 *
 * The kernel variant the paper builds on detects quiescence via
 * context switches; what the allocator consumes is identical either
 * way: the monotone (defer_epoch, completed_epoch) pair of
 * GracePeriodDomain.
 */
#ifndef PRUDENCE_RCU_RCU_DOMAIN_H
#define PRUDENCE_RCU_RCU_DOMAIN_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rcu/grace_period.h"
#include "stats/counters.h"
#include "sync/thread_registry.h"

namespace prudence {

namespace telemetry {
class ProbeGroup;
}

/// Tuning for an RcuDomain.
struct RcuConfig
{
    /**
     * Start a background thread that continuously completes grace
     * periods. When false, grace periods complete only via
     * synchronize() or explicit advance() calls.
     */
    bool background_gp_thread = true;

    /**
     * Pause between background grace periods. Larger values extend
     * the wait before deferred objects become safe (the paper's
     * grace-period latency), growing the deferred backlog.
     */
    std::chrono::microseconds gp_interval{200};

    /// Maximum concurrently registered reader threads.
    std::size_t max_reader_threads = 1024;
};

/// Counters describing grace-period activity.
struct RcuStatsSnapshot
{
    std::uint64_t grace_periods = 0;
    GpEpoch current_epoch = 0;
    GpEpoch completed_epoch = 0;
    /// Wall duration of the most recently completed grace period.
    std::uint64_t last_gp_ns = 0;
};

/**
 * An RCU synchronization domain: readers + grace-period detection.
 *
 * Reader usage (normally via RcuReadGuard):
 * @code
 *   domain.read_lock();
 *   ... dereference RCU-protected pointers ...
 *   domain.read_unlock();
 * @endcode
 */
class RcuDomain : public GracePeriodDomain
{
  public:
    explicit RcuDomain(const RcuConfig& config = {});
    ~RcuDomain() override;

    RcuDomain(const RcuDomain&) = delete;
    RcuDomain& operator=(const RcuDomain&) = delete;

    /// Enter a read-side critical section (nestable).
    void read_lock();
    /// Leave a read-side critical section.
    void read_unlock();
    /// True iff the calling thread is inside a read-side section.
    bool in_reader_section() const;

    // GracePeriodDomain interface.
    GpEpoch defer_epoch() override;
    GpEpoch completed_epoch() const override;
    void synchronize() override;

    /**
     * Run one full grace period inline (two-phase wait). Used by the
     * background thread and directly by tests.
     */
    void advance();

    /// Activity counters.
    RcuStatsSnapshot stats() const;

    /**
     * Register this domain's telemetry probes (grace-period count,
     * last grace-period latency, active reader count) with @p group,
     * names prefixed by @p prefix.
     */
    void register_telemetry_probes(telemetry::ProbeGroup& group,
                                   const std::string& prefix = "");

    /**
     * Grace-period progress probe for the stall detector: the epoch
     * the in-flight advance() is currently waiting on, or 0 when no
     * grace period is being computed. (The raw gp_ctr_/completed_
     * counters cannot answer this — an idle domain sits two ahead of
     * completed_ by construction.)
     * @param start_ns when non-null, receives the steady-clock
     *        timestamp at which the in-flight grace period began.
     */
    GpEpoch gp_in_flight(std::uint64_t* start_ns = nullptr) const;

    /**
     * Snapshot of reader slots holding the in-flight grace period
     * open: every registered slot whose published epoch v satisfies
     * 0 < v < target. Advisory (slots change concurrently); used by
     * the stall detector to name the stalled readers.
     */
    std::vector<GpEpoch> reader_snapshots(GpEpoch target) const;

  private:
    void wait_for_readers(GpEpoch target);
    void gp_thread_main();

    ThreadRegistry readers_;
    std::atomic<GpEpoch> gp_ctr_{1};
    std::atomic<GpEpoch> completed_{0};
    /// Phase epoch the in-flight advance() waits on (0 = idle).
    std::atomic<GpEpoch> gp_target_{0};
    /// Steady-clock ns at which the in-flight advance() started.
    std::atomic<std::uint64_t> gp_start_ns_{0};
    /// Wall duration of the last completed grace period.
    std::atomic<std::uint64_t> last_gp_ns_{0};
    Counter grace_periods_;

    /// Serializes grace-period computation.
    std::mutex gp_mutex_;
    /// Signals completed_ advances to synchronize() waiters.
    std::mutex waiter_mutex_;
    std::condition_variable waiter_cv_;

    std::atomic<bool> running_{false};
    std::chrono::microseconds gp_interval_;
    std::thread gp_thread_;
};

/// RAII read-side critical section.
class RcuReadGuard
{
  public:
    explicit RcuReadGuard(RcuDomain& domain) : domain_(domain)
    {
        domain_.read_lock();
    }
    ~RcuReadGuard() { domain_.read_unlock(); }

    RcuReadGuard(const RcuReadGuard&) = delete;
    RcuReadGuard& operator=(const RcuReadGuard&) = delete;

  private:
    RcuDomain& domain_;
};

}  // namespace prudence

#endif  // PRUDENCE_RCU_RCU_DOMAIN_H
