/**
 * @file
 * Per-slab-cache statistics: the exact quantities the paper's
 * Figures 7-11 report, plus the raw event counts they derive from.
 */
#ifndef PRUDENCE_STATS_CACHE_STATS_H
#define PRUDENCE_STATS_CACHE_STATS_H

#include <cstdint>
#include <string>

#include "stats/counters.h"

namespace prudence {

/// Raw per-cache event counters, updated by the allocators.
struct CacheStats
{
    /// Total allocation requests.
    Counter alloc_calls;
    /// Allocations served directly from the per-CPU object cache
    /// without refilling or merging (paper Fig. 7 numerator).
    Counter cache_hits;
    /// Allocations served after merging safe latent objects into the
    /// object cache (Prudence only; these are neither plain hits nor
    /// refills).
    Counter latent_merge_hits;
    /// Immediate (non-deferred) free calls.
    Counter free_calls;
    /// Deferred free calls (paper Fig. 12 numerator).
    Counter deferred_free_calls;
    /// Object-cache refill operations (slow-path fills from slabs).
    Counter refills;
    /// Object-cache flush operations (overflow spills to slabs).
    Counter flushes;
    /// Latent-cache pre-flush operations (Prudence only).
    Counter preflushes;
    /// Slab-cache grow operations (new slab from the page allocator).
    Counter grows;
    /// Slab-cache shrink operations (slab pages returned).
    Counter shrinks;
    /// Slab pre-movements between node lists (Prudence only).
    Counter premoves;
    /// Allocation attempts that had to wait for a grace period
    /// because the cache was out of memory (Prudence OOM deferral).
    Counter oom_waits;
    /// OOM expedite passes: safe deferred objects harvested without
    /// waiting for a new grace period (first escalation rung).
    Counter oom_expedites;
    /// Allocation attempts that failed outright (OOM).
    Counter oom_failures;
    /// Per-CPU spinlock acquisitions on the alloc/free/defer hot path
    /// (fig14-style contention accounting for the slab layer; the
    /// lock-free per-CPU layer drives this to ~0 — DESIGN.md §14).
    /// Maintenance/introspection acquisitions are not counted.
    Counter pcpu_lock_acquisitions;
    /// Whole-magazine exchanges with the lock-free depot (refills +
    /// flushes + deferral spills served by one CAS, no lock).
    Counter depot_exchanges;
    /// Depot refill misses with the deferred stack empty too: nothing
    /// cached anywhere, a genuinely cold refill.
    Counter depot_miss_cold;
    /// Depot refill misses where deferred blocks exist but every
    /// scanned one is still inside its grace period: the prudence
    /// window outran the full stack.
    Counter depot_miss_gp_pending;
    /// Slabs currently allocated / high-water mark (Fig. 10).
    PeakGauge slabs;
    /// Objects currently handed out to users / high-water mark.
    PeakGauge live_objects;
    /// Deferred objects not yet reusable (latent cache + latent slabs
    /// for Prudence; callback backlog for the baseline).
    PeakGauge deferred_outstanding;

    /// Zero every counter and gauge.
    void reset();
};

/// Immutable snapshot of CacheStats plus derived paper metrics.
struct CacheStatsSnapshot
{
    std::string cache_name;
    std::size_t object_size = 0;
    std::size_t slab_bytes = 0;

    std::uint64_t alloc_calls = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t latent_merge_hits = 0;
    std::uint64_t free_calls = 0;
    std::uint64_t deferred_free_calls = 0;
    std::uint64_t refills = 0;
    std::uint64_t flushes = 0;
    std::uint64_t preflushes = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t premoves = 0;
    std::uint64_t oom_waits = 0;
    std::uint64_t oom_expedites = 0;
    std::uint64_t oom_failures = 0;
    std::uint64_t pcpu_lock_acquisitions = 0;
    std::uint64_t depot_exchanges = 0;
    std::uint64_t depot_miss_cold = 0;
    std::uint64_t depot_miss_gp_pending = 0;
    std::int64_t current_slabs = 0;
    std::int64_t peak_slabs = 0;
    std::int64_t live_objects = 0;
    std::int64_t peak_live_objects = 0;
    std::int64_t deferred_outstanding = 0;
    std::int64_t peak_deferred_outstanding = 0;

    /// % of allocations served from the object cache (paper Fig. 7).
    double cache_hit_percent() const;
    /// Object-cache churns = refill/flush pairs (paper Fig. 8).
    std::uint64_t object_cache_churns() const;
    /// Slab churns = grow/shrink pairs (paper Fig. 9).
    std::uint64_t slab_churns() const;
    /// Deferred frees as % of all frees (paper Fig. 12).
    double deferred_free_percent() const;
    /**
     * Total fragmentation f_t = allocated / requested
     * = (slabs * slab_size) / (live_objects * object_size),
     * measured at snapshot time (paper Fig. 11, end of run).
     * Returns 1.0 when no objects are live.
     */
    double total_fragmentation() const;
};

/// Capture a snapshot of @p stats with identifying metadata.
CacheStatsSnapshot snapshot_cache_stats(const CacheStats& stats,
                                        const std::string& name,
                                        std::size_t object_size,
                                        std::size_t slab_bytes);

}  // namespace prudence

#endif  // PRUDENCE_STATS_CACHE_STATS_H
