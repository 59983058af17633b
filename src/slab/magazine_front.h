/**
 * @file
 * The shared magazine front end (DESIGN.md §9): the per-thread lookup
 * and the hit paths both allocators put in front of their per-CPU
 * layers.
 *
 * A hit is an object-cache pop or push on the calling thread's
 * magazine (Algorithm 1's common case). The front end keeps it a leaf:
 * one thread-local compare against the registry memo, one indexed load
 * of the magazine, the pop or push, one stat-delta bump. Everything
 * else is a boundary the caller hands to its own out-of-line slow
 * function, which is where the Prudence/SLUB policy diff lives:
 *
 *  - no magazine yet (first use of the cache or the thread, or the
 *    memo names another allocator instance),
 *  - magazine empty (refill) or full (flush),
 *  - magazine_capacity = 0 (no table is ever attached, so the memo
 *    never matches and every call takes the slow path).
 *
 * The slow functions create tables and magazines through table() and
 * magazine(), which own the capacity rule.
 */
#ifndef PRUDENCE_SLAB_MAGAZINE_FRONT_H
#define PRUDENCE_SLAB_MAGAZINE_FRONT_H

#include <cstddef>
#include <functional>

#include "slab/magazine.h"
#include "sync/cpu_registry.h"
#include "sync/thread_cache_registry.h"

namespace prudence {

/// Per-thread magazine tables of one allocator instance.
class MagazineFront
{
  public:
    /**
     * @param capacity the allocator's magazine_capacity knob
     *        (0 = layer off: no table is ever created)
     * @param cpus resolves a thread's CPU id once, at table creation
     * @param drain flushes one table back into the allocator (thread
     *        exit or shutdown; see ThreadCacheRegistry::Hooks)
     */
    MagazineFront(std::size_t capacity, CpuRegistry& cpus,
                  std::function<void(ThreadMagazines&)> drain);

    MagazineFront(const MagazineFront&) = delete;
    MagazineFront& operator=(const MagazineFront&) = delete;

    /// The configured knob (0 = layer off).
    std::size_t capacity() const { return capacity_; }

    /**
     * The calling thread's magazine for cache @p index, or nullptr
     * when the memo does not name this allocator's table, the
     * magazine does not exist yet, or @p index is out of range (an
     * invalid CacheId: the slow path's id check reports it). No call,
     * no TLS init wrapper: the memo is constant-initialised.
     */
    Magazine*
    hot(std::size_t index) const
    {
        if (index >= kMaxSlabCaches ||
            detail::t_tcr_last_serial != registry_.serial())
            return nullptr;
        return static_cast<ThreadMagazines*>(detail::t_tcr_last_table)
            ->mags[index]
            .get();
    }

    /// Alloc hit: pop from the magazine; nullptr on any boundary.
    void*
    pop(std::size_t index) const
    {
        Magazine* m = hot(index);
        if (m == nullptr || m->objects.empty())
            return nullptr;
        ++m->stats.alloc_calls;
        ++m->stats.cache_hits;
        return m->objects.pop();
    }

    /// Free hit: push into the magazine; false on any boundary.
    bool
    push(std::size_t index, void* p) const
    {
        Magazine* m = hot(index);
        if (m == nullptr || m->objects.full())
            return false;
        ++m->stats.free_calls;
        m->objects.push(p);
        return true;
    }

    /// The calling thread's table, or nullptr if it has none.
    ThreadMagazines*
    current() const
    {
        return static_cast<ThreadMagazines*>(registry_.lookup());
    }

    /// The calling thread's table, created and registered on first
    /// use (pins the thread's CPU id at creation).
    ThreadMagazines& table();

    /**
     * @p t's magazine for cache @p index, created on first use. Its
     * capacity is the knob clamped to the per-CPU object-cache
     * capacity @p cache_capacity (one magazine flush must always fit
     * after one per-CPU flush) and to kMaxMagazineCapacity (the
     * flush/spill scratch arrays), and at least 1.
     */
    Magazine& magazine(ThreadMagazines& t, std::size_t index,
                       std::size_t cache_capacity) const;

    /// Drain and destroy every surviving table (allocator destructor;
    /// see ThreadCacheRegistry::shutdown).
    void shutdown() { registry_.shutdown(); }

  private:
    const std::size_t capacity_;
    CpuRegistry& cpus_;
    ThreadCacheRegistry registry_;
};

}  // namespace prudence

#endif  // PRUDENCE_SLAB_MAGAZINE_FRONT_H
