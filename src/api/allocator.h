/**
 * @file
 * The unified dynamic-memory-allocator interface.
 *
 * Every consumer in this repository — tests, benchmarks, workload
 * models, data structures, examples — programs against this interface
 * so the SLUB baseline and Prudence are interchangeable.
 *
 * The deferred-free entry points are the paper's contribution surface:
 * kfree_deferred()/cache_free_deferred() are the "simple turnkey
 * replacement" (paper §4, Listing 2) for registering an RCU callback
 * that frees the object (Listing 1). The baseline implements them *as*
 * an RCU callback; Prudence implements them with latent caches/slabs.
 */
#ifndef PRUDENCE_API_ALLOCATOR_H
#define PRUDENCE_API_ALLOCATOR_H

#include <cstddef>
#include <string>
#include <vector>

#include "stats/cache_stats.h"

namespace prudence {

class BuddyAllocator;

namespace telemetry {
class ProbeGroup;
}

class Allocator;

namespace telemetry::detail {
/// Out-of-line body of the default register_telemetry_probes()
/// (telemetry/allocator_probes.cc). A free function so Allocator
/// keeps no out-of-line virtual — its vtable stays weakly emitted.
void register_default_allocator_probes(Allocator& a, ProbeGroup& group,
                                       const std::string& prefix);
}  // namespace telemetry::detail

/// Opaque handle to a named object cache (kmem_cache analogue).
struct CacheId
{
    std::size_t index = static_cast<std::size_t>(-1);
    bool valid() const { return index != static_cast<std::size_t>(-1); }
};

/// Abstract slab-based dynamic memory allocator.
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /// Short implementation name ("slub" or "prudence").
    virtual const char* kind() const = 0;

    // ---- untyped (kmalloc ladder) ----

    /**
     * Allocate @p size bytes from the matching kmalloc size class.
     * @return nullptr when out of memory or size exceeds the ladder.
     */
    virtual void* kmalloc(std::size_t size) = 0;

    /// Immediately free @p p (no-op for nullptr).
    virtual void kfree(void* p) = 0;

    /**
     * Defer freeing @p p until the current RCU grace period completes
     * (paper Listing 2: free_deferred). The object must not be
     * touched by the caller afterwards, but pre-existing RCU readers
     * may still be dereferencing it — its memory is guaranteed not to
     * be reused until the grace period ends.
     */
    virtual void kfree_deferred(void* p) = 0;

    // ---- typed caches (kmem_cache analogue) ----

    /**
     * Create (or look up, by exact name and size) a named cache of
     * fixed-size objects.
     */
    virtual CacheId create_cache(const std::string& name,
                                 std::size_t object_size) = 0;

    /// Allocate one object from @p cache (nullptr on OOM).
    virtual void* cache_alloc(CacheId cache) = 0;

    /// Immediately free an object of @p cache.
    virtual void cache_free(CacheId cache, void* p) = 0;

    /// Defer-free an object of @p cache
    /// (kmem_cache_free_deferred(), paper §5).
    virtual void cache_free_deferred(CacheId cache, void* p) = 0;

    // ---- introspection & lifecycle ----

    /// Statistics for one cache.
    virtual CacheStatsSnapshot cache_snapshot(CacheId cache) const = 0;

    /// Statistics for every cache (kmalloc classes + named).
    virtual std::vector<CacheStatsSnapshot> snapshots() const = 0;

    /// The backing page allocator (memory-timeline probe).
    virtual BuddyAllocator& page_allocator() = 0;

    /**
     * Wait for outstanding grace periods and reclaim every deferred
     * object (baseline: drain the callback backlog; Prudence: merge
     * every latent structure). Used between benchmark phases and at
     * teardown so end-of-run metrics are comparable.
     */
    virtual void quiesce() = 0;

    /**
     * Flush the calling thread's thread-local caches (magazines and
     * deferral buffers) back into the shared per-CPU layer. Batched
     * deferrals buffered by this thread are epoch-tagged *now*, so a
     * grace period started after this call covers them. No-op for
     * allocators without a thread-local layer (or with it disabled).
     * Threads that exit drain implicitly; long-lived threads that
     * need exact accounting visible to other threads call this.
     */
    virtual void drain_thread() {}

    /**
     * Register this allocator's telemetry probes with @p group, names
     * prefixed by @p prefix (DESIGN.md §12). The default registers
     * the signals derivable from the public surface: latent/deferred
     * object count and bytes (from cache snapshots) plus the backing
     * page allocator's probes. Implementations override to add
     * engine-specific signals (the baseline's callback backlog).
     * Probe closures capture `this`: the group must not outlive the
     * allocator.
     */
    virtual void
    register_telemetry_probes(telemetry::ProbeGroup& group,
                              const std::string& prefix = "")
    {
        telemetry::detail::register_default_allocator_probes(*this, group,
                                                             prefix);
    }

    // ---- reclamation-pressure actuators (governor surface,
    // DESIGN.md §13) ----

    /**
     * Restrict deferral admission to @p pct percent of the nominal
     * capacity (100 = nominal; implementations clamp the floor).
     * Prudence resizes every latent ring's spill boundary so deferred
     * objects move to slabs (and thence to reclaim) earlier; the
     * baseline, whose only deferral store is the callback backlog,
     * treats any value < 100 as a request to drain more eagerly.
     * Idempotent per value; safe from any thread; quiesce() resets to
     * nominal.
     */
    virtual void set_deferred_admission(unsigned pct) { (void)pct; }

    /**
     * Harvest every deferral whose grace period has already completed,
     * without blocking on a new one — the expedite rung shared by the
     * governor's critical level and the OOM ladder. @return an
     * implementation-defined progress count (0 = nothing to do).
     */
    virtual std::size_t reclaim_ready() { return 0; }

    /**
     * Trim the lock-free magazine depot (DESIGN.md §14) down to
     * @p keep_blocks cached full blocks per cache, returning the
     * drained objects to slab freelists — the slab-layer analogue of
     * the buddy allocator's trim_pcp actuator. No-op (0) for
     * allocators without a depot or with the lock-free layer off.
     * @return objects released.
     */
    virtual std::size_t trim_depot(std::size_t keep_blocks)
    {
        (void)keep_blocks;
        return 0;
    }

    /**
     * Unused by the library: no allocator here implements it and
     * nothing calls it. It remains only because the benchmark's
     * timing decorator (prudbench/prudbench.cc) overrides it; delete
     * it together with that override. @return 0.
     */
    virtual std::size_t harvest_depot() { return 0; }

    /**
     * Deep structural self-check: walk every slab of every cache and
     * cross-check freelists, latent structures, list membership and
     * object accounting. Exact accounting requires a quiescent
     * allocator (no concurrent traffic).
     * @return empty string when consistent, else the first
     *         inconsistency found.
     */
    virtual std::string validate() = 0;
};

}  // namespace prudence

#endif  // PRUDENCE_API_ALLOCATOR_H
