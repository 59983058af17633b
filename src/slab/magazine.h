/**
 * @file
 * Thread-local magazine layer (Bonwick-style magazines in front of
 * the per-CPU caches; DESIGN.md §9).
 *
 * Each thread keeps, per slab cache, one Magazine: a bounded LIFO of
 * free objects plus a deferral buffer. The allocator fast paths
 * operate purely on this thread-private state — no lock, no shared
 * atomic — and fall into the per-CPU layer only at batch boundaries
 * (magazine empty/full, deferral buffer full), where one spinlock
 * acquisition is amortized over ~capacity/2 operations.
 *
 * Statistics taken on the fast path accumulate in plain (non-atomic)
 * per-thread deltas and are folded into the shared CacheStats at the
 * same batch boundaries, under the per-CPU lock.
 *
 * ThreadMagazines (one per thread per allocator instance) also caches
 * the completed grace-period epoch, invalidated by the domain's
 * completion generation counter; see GracePeriodDomain.
 */
#ifndef PRUDENCE_SLAB_MAGAZINE_H
#define PRUDENCE_SLAB_MAGAZINE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "rcu/grace_period.h"
#include "slab/object_cache.h"
#include "stats/cache_stats.h"
#include "sync/cacheline.h"

namespace prudence {

/// Fixed bound on caches per allocator (shared by both allocators'
/// cache tables and the per-thread magazine tables).
inline constexpr std::size_t kMaxSlabCaches = 256;

/// Hard ceiling on magazine capacity. Keeps the flush/spill scratch
/// arrays stack-friendly and guarantees a flush can always make room
/// in the per-CPU cache (128 < the per-CPU flush clamp of 256).
inline constexpr std::size_t kMaxMagazineCapacity = 128;

/**
 * Per-thread statistic deltas, folded into the shared CacheStats at
 * batch boundaries. Plain integers: single writer (the owning
 * thread), and readers only ever see them after a flush under the
 * per-CPU lock.
 */
struct ThreadCacheStats
{
    std::uint64_t alloc_calls = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t free_calls = 0;
    std::uint64_t deferred_free_calls = 0;

    bool
    any() const
    {
        return (alloc_calls | cache_hits | free_calls |
                deferred_free_calls) != 0;
    }

    /// Fold the deltas into @p stats and zero them. Caller holds the
    /// per-CPU lock of the cache the deltas belong to.
    void
    flush_into(CacheStats& stats)
    {
        stats.alloc_calls.add(alloc_calls);
        stats.cache_hits.add(cache_hits);
        stats.free_calls.add(free_calls);
        stats.deferred_free_calls.add(deferred_free_calls);
        alloc_calls = cache_hits = free_calls = deferred_free_calls = 0;
    }
};

/**
 * One thread's private state for one slab cache. Cache-line aligned
 * so two magazines of the same thread never share a line with each
 * other (they are exclusively written by one thread anyway, but the
 * alignment keeps the hot fields of the *current* cache together).
 */
struct alignas(kCacheLineSize) Magazine
{
    /// Free objects available to alloc without touching shared state.
    ObjectCache objects;
    /// Stat deltas accumulated since the last batch boundary.
    ThreadCacheStats stats;
    /// Deferred objects buffered since the last spill. They carry no
    /// per-object epoch: the whole batch is tagged with one
    /// defer_epoch() read at spill time, which is >= each member's
    /// true defer epoch (conservative, hence safe; DESIGN.md §9).
    std::size_t defer_count = 0;
    std::size_t defer_capacity;
    std::unique_ptr<void*[]> defers;
    /// Deliberate-bug scratch (perturb::BugId::kStaleSpillTag): the epoch
    /// observed when the FIRST object of the current batch was
    /// buffered. Tagging the spill with this instead of a fresh
    /// defer_epoch() read is exactly the non-conservative bug the
    /// schedule fuzzer must catch. Unused unless the bug is armed.
    GpEpoch bug_first_epoch = 0;

    explicit Magazine(std::size_t capacity)
        : objects(capacity),
          defer_capacity(capacity),
          defers(std::make_unique<void*[]>(capacity))
    {
    }

    bool defers_full() const { return defer_count == defer_capacity; }
};

static_assert(alignof(Magazine) == kCacheLineSize,
              "magazine must not straddle unrelated cache lines");

/**
 * All of one thread's magazines for one allocator instance, plus the
 * thread's cached view of grace-period completion. Created and
 * registered by the allocator's MagazineFront (slab/magazine_front.h);
 * drained on thread exit or allocator shutdown.
 */
struct ThreadMagazines
{
    /// The CPU id assigned to this thread, resolved once at table
    /// creation: the magazine pins thread identity, so per-operation
    /// CpuRegistry::cpu_id() lookups are hoisted out of the hot path.
    const unsigned cpu;

    /// Cached domain.completed_epoch() snapshot, refreshed at batch
    /// boundaries when gen_seen lags the domain's generation counter.
    /// Stale values are <= the true value: conservative, never unsafe.
    GpEpoch cached_completed = 0;
    std::uint64_t gen_seen = 0;

    /// Lazily created magazine per cache index (MagazineFront::magazine).
    std::array<std::unique_ptr<Magazine>, kMaxSlabCaches> mags;

    explicit ThreadMagazines(unsigned cpu_id) : cpu(cpu_id) {}
};

static_assert(alignof(ThreadMagazines) <= kCacheLineSize,
              "table itself needs no stricter alignment; magazines "
              "are heap-allocated and individually aligned");

}  // namespace prudence

#endif  // PRUDENCE_SLAB_MAGAZINE_H
