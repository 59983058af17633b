#include "stats/cache_stats.h"

#include <algorithm>

namespace prudence {

void
CacheStats::reset()
{
    alloc_calls.reset();
    cache_hits.reset();
    latent_merge_hits.reset();
    free_calls.reset();
    deferred_free_calls.reset();
    refills.reset();
    flushes.reset();
    preflushes.reset();
    grows.reset();
    shrinks.reset();
    premoves.reset();
    oom_waits.reset();
    oom_expedites.reset();
    oom_failures.reset();
    pcpu_lock_acquisitions.reset();
    depot_exchanges.reset();
    depot_miss_cold.reset();
    depot_miss_gp_pending.reset();
    slabs.reset();
    live_objects.reset();
    deferred_outstanding.reset();
}

double
CacheStatsSnapshot::cache_hit_percent() const
{
    if (alloc_calls == 0)
        return 0.0;
    return 100.0 * static_cast<double>(cache_hits) /
           static_cast<double>(alloc_calls);
}

std::uint64_t
CacheStatsSnapshot::object_cache_churns() const
{
    return std::min(refills, flushes);
}

std::uint64_t
CacheStatsSnapshot::slab_churns() const
{
    return std::min(grows, shrinks);
}

double
CacheStatsSnapshot::deferred_free_percent() const
{
    std::uint64_t total = free_calls + deferred_free_calls;
    if (total == 0)
        return 0.0;
    return 100.0 * static_cast<double>(deferred_free_calls) /
           static_cast<double>(total);
}

double
CacheStatsSnapshot::total_fragmentation() const
{
    if (live_objects <= 0 || object_size == 0)
        return 1.0;
    double allocated =
        static_cast<double>(current_slabs) * static_cast<double>(slab_bytes);
    double requested = static_cast<double>(live_objects) *
                       static_cast<double>(object_size);
    if (requested <= 0.0)
        return 1.0;
    return allocated / requested;
}

CacheStatsSnapshot
snapshot_cache_stats(const CacheStats& stats, const std::string& name,
                     std::size_t object_size, std::size_t slab_bytes)
{
    CacheStatsSnapshot s;
    s.cache_name = name;
    s.object_size = object_size;
    s.slab_bytes = slab_bytes;
    s.alloc_calls = stats.alloc_calls.get();
    s.cache_hits = stats.cache_hits.get();
    s.latent_merge_hits = stats.latent_merge_hits.get();
    s.free_calls = stats.free_calls.get();
    s.deferred_free_calls = stats.deferred_free_calls.get();
    s.refills = stats.refills.get();
    s.flushes = stats.flushes.get();
    s.preflushes = stats.preflushes.get();
    s.grows = stats.grows.get();
    s.shrinks = stats.shrinks.get();
    s.premoves = stats.premoves.get();
    s.oom_waits = stats.oom_waits.get();
    s.oom_expedites = stats.oom_expedites.get();
    s.oom_failures = stats.oom_failures.get();
    s.pcpu_lock_acquisitions = stats.pcpu_lock_acquisitions.get();
    s.depot_exchanges = stats.depot_exchanges.get();
    s.depot_miss_cold = stats.depot_miss_cold.get();
    s.depot_miss_gp_pending = stats.depot_miss_gp_pending.get();
    s.current_slabs = stats.slabs.get();
    s.peak_slabs = stats.slabs.peak();
    s.live_objects = stats.live_objects.get();
    s.peak_live_objects = stats.live_objects.peak();
    s.deferred_outstanding = stats.deferred_outstanding.get();
    s.peak_deferred_outstanding = stats.deferred_outstanding.peak();
    return s;
}

}  // namespace prudence
