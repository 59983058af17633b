/**
 * @file
 * Test-and-test-and-set spinlock with exponential backoff.
 *
 * Used for per-CPU structures (virtually always uncontended: the
 * owning thread vs. the occasional maintenance-thread visit) and for
 * node-list / slab-level critical sections, where the paper's whole
 * point is that Prudence *spreads* the contention over time.
 */
#ifndef PRUDENCE_SYNC_SPINLOCK_H
#define PRUDENCE_SYNC_SPINLOCK_H

#include <atomic>

#include "perturb/perturb.h"
#include "sync/backoff.h"

namespace prudence {

/// A small TTAS spinlock satisfying the Lockable named requirement, so
/// it composes with std::lock_guard / std::scoped_lock.
class SpinLock
{
  public:
    SpinLock() = default;
    SpinLock(const SpinLock&) = delete;
    SpinLock& operator=(const SpinLock&) = delete;

    /**
     * Acquire the lock, spinning with backoff until available.
     *
     * Contended-path bound and fairness: each backoff step issues at
     * most Backoff::kMaxSpins (1024) pause hints before degrading to
     * sched-yield, so a waiter is never buried in an unbounded pause
     * burst. The backoff is reset every time the lock is observed
     * free — all contenders re-race the next acquisition from the
     * shortest backoff instead of long-waiting threads carrying an
     * ever-growing penalty against fresh arrivals (the unfairness
     * that starved old waiters under sustained contention).
     */
    void
    lock()
    {
        // Perturbing lock-acquisition order is the cheapest generic
        // interleaving lever: whoever a schedule session delays here
        // loses the race for every per-CPU / node-level critical
        // section.
        PRUDENCE_PERTURB_POINT(kSpinLockAcquire);
        Backoff backoff;
        for (;;) {
            if (!locked_.exchange(true, std::memory_order_acquire))
                return;
            while (locked_.load(std::memory_order_relaxed))
                backoff.pause();
            // Lock observed free: level the playing field for the
            // re-race (see contract above).
            backoff.reset();
        }
    }

    /// Try to acquire without blocking. @return true on success.
    bool
    try_lock()
    {
        return !locked_.load(std::memory_order_relaxed) &&
               !locked_.exchange(true, std::memory_order_acquire);
    }

    /// Release the lock.
    void unlock() { locked_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> locked_{false};
};

}  // namespace prudence

#endif  // PRUDENCE_SYNC_SPINLOCK_H
