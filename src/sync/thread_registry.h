/**
 * @file
 * Per-thread slot registry used for RCU reader state.
 *
 * Each participating thread owns one Slot; a grace-period detector
 * iterates over all live slots. Slots are recycled when a thread
 * exits (a thread_local destructor releases every slot the thread
 * acquired, across all registries).
 *
 * A Slot holds a single atomic word. For the RCU domain the word is
 * 0 when the thread is quiescent (not inside any read-side critical
 * section) and the epoch observed at the outermost read_lock()
 * otherwise. Nesting depth is kept in a plain owner-only field.
 */
#ifndef PRUDENCE_SYNC_THREAD_REGISTRY_H
#define PRUDENCE_SYNC_THREAD_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sync/cacheline.h"

namespace prudence {

/// One registered thread's state word, cache-line padded.
struct alignas(kCacheLineSize) ThreadSlot
{
    /// Generic atomic state word (RCU: 0 = quiescent, else epoch).
    std::atomic<std::uint64_t> value{0};
    /// Owner-thread-only scratch (RCU: read-side nesting depth).
    std::uint32_t nesting = 0;
    /// Owner-thread-only telemetry stamp: steady-clock ns at the
    /// outermost section entry (0 = unstamped; set by read_lock).
    std::uint64_t section_start_ns = 0;
    /// True while a live thread owns this slot.
    std::atomic<bool> in_use{false};
};

namespace detail {
/// Most-recently-used (registry serial → slot) memo for the calling
/// thread. Serials are process-unique and never reused, so a stale
/// memo can only match a registry that no longer receives calls.
/// constinit: slot() loads it without a TLS init wrapper.
extern constinit thread_local std::uint64_t t_tr_last_serial;
extern constinit thread_local ThreadSlot* t_tr_last_slot;
}  // namespace detail

/**
 * Registry of per-thread slots with automatic release at thread exit.
 *
 * Slot storage is a fixed array sized at construction; acquiring more
 * concurrent threads than @c capacity throws. Iteration visits slots
 * currently in use (and, benignly, slots being concurrently released
 * — their value word is zeroed before release).
 */
class ThreadRegistry
{
  public:
    /// @param capacity maximum number of concurrently registered threads.
    explicit ThreadRegistry(std::size_t capacity = 1024);
    ~ThreadRegistry();

    ThreadRegistry(const ThreadRegistry&) = delete;
    ThreadRegistry& operator=(const ThreadRegistry&) = delete;

    /**
     * The calling thread's slot in this registry, acquiring one on
     * first use. The slot stays owned until the thread exits. One
     * thread-local compare when this registry was the thread's last
     * lookup (RcuDomain::read_lock/read_unlock call it every time).
     */
    ThreadSlot&
    slot()
    {
        if (detail::t_tr_last_serial == serial_)
            return *detail::t_tr_last_slot;
        return slot_slow();
    }

    /**
     * Invoke @p fn(const ThreadSlot&) for every in-use slot.
     * @tparam Fn callable taking const ThreadSlot&.
     */
    template <typename Fn>
    void
    for_each_slot(Fn&& fn) const
    {
        std::size_t hi = high_water_.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < hi; ++i) {
            const ThreadSlot& s = slots_[i];
            if (s.in_use.load(std::memory_order_acquire))
                fn(s);
        }
    }

    /// Number of currently registered threads (approximate snapshot).
    std::size_t registered_count() const;

    /// Process-unique serial of this registry instance.
    std::uint64_t serial() const { return serial_; }

  private:
    friend struct ThreadSlotReleaser;

    ThreadSlot& slot_slow();
    ThreadSlot* acquire_slot();
    void release_slot(ThreadSlot* slot);

    const std::uint64_t serial_;
    const std::size_t capacity_;
    std::unique_ptr<ThreadSlot[]> slots_;
    /// One past the highest index ever used; bounds iteration.
    std::atomic<std::size_t> high_water_{0};
    mutable std::mutex acquire_mutex_;
};

}  // namespace prudence

#endif  // PRUDENCE_SYNC_THREAD_REGISTRY_H
