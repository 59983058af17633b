/**
 * @file
 * The baseline slab allocator (paper §2.3) with conventional deferred
 * freeing (paper §2.2, Listing 1).
 *
 * Organization: per-CPU object caches over per-node full/partial/free
 * slab lists. Deferred frees are *invisible* to this allocator: they
 * are RCU callbacks queued on the CallbackEngine and invoked — batched
 * and throttled — some time after the grace period, which is precisely
 * what induces the paper's §3 pathologies (bursty freeing, extended
 * object lifetimes, object-cache and slab churn, OOM under sustained
 * update load).
 */
#ifndef PRUDENCE_SLUB_SLUB_ALLOCATOR_H
#define PRUDENCE_SLUB_SLUB_ALLOCATOR_H

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/allocator.h"
#include "page/buddy_allocator.h"
#include "rcu/callback_engine.h"
#include "rcu/grace_period.h"
#include "slab/magazine.h"
#include "slab/object_cache.h"
#include "slab/page_owner.h"
#include "slab/slab_pool.h"
#include "sync/cacheline.h"
#include "sync/cpu_registry.h"
#include "sync/spinlock.h"
#include "sync/lockfree_ring.h"
#include "sync/thread_cache_registry.h"

// Build-time default for the lock-free per-CPU layer toggle (CMake
// option PRUDENCE_LOCKFREE_PCPU); see core/prudence_config.h.
#if !defined(PRUDENCE_LOCKFREE_PCPU_DEFAULT)
#define PRUDENCE_LOCKFREE_PCPU_DEFAULT 1
#endif

namespace prudence {

/// Construction parameters for the baseline allocator.
struct SlubConfig
{
    /// Simulated physical memory (hard OOM boundary).
    std::size_t arena_bytes = std::size_t{1} << 30;
    /// Virtual CPUs (per-CPU object caches).
    unsigned cpus = 8;
    /**
     * Deferred-free processing regime. cpus is overridden to match
     * the allocator; a memory-pressure probe is wired to the arena
     * automatically when expediting is left unconfigured.
     */
    CallbackEngineConfig callback;

    /**
     * Thread-local magazine capacity (0 = off), mirroring
     * PrudenceConfig::magazine_capacity so head-to-head benchmarks
     * compare like fast paths. Only immediate alloc/free go through
     * magazines; deferred frees remain per-operation callbacks (the
     * baseline's defining cost), and callback-invoked frees bypass
     * the layer (engine drainer threads never exit).
     */
    std::size_t magazine_capacity = 32;

    /**
     * Lock-free per-CPU object caches (DESIGN.md §14): each CPU's
     * cache is a bounded lock-free MPMC ring instead of a
     * spinlock-guarded ObjectCache, so alloc/free/callback-invoked
     * frees stop contending the per-CPU lock (drainer threads hammer
     * it hardest). false = legacy locked path (the A/B baseline leg).
     * Mirrors PrudenceConfig::lockfree_pcpu.
     */
    bool lockfree_pcpu = PRUDENCE_LOCKFREE_PCPU_DEFAULT != 0;

    /// Per-CPU page-cache high watermark (0 = off), mirroring
    /// PrudenceConfig::pcp_high_watermark so both allocators front
    /// the buddy lock the same way (DESIGN.md §10).
    std::size_t pcp_high_watermark = 32;

    /// Blocks per page-cache refill/drain batch, mirroring
    /// PrudenceConfig::pcp_batch.
    std::size_t pcp_batch = 8;

    /**
     * Ready callbacks drained per admission point when the governor
     * restricts deferral admission (set_deferred_admission(pct)
     * drains (100 - pct) * pressure_drain_batch callbacks). The
     * baseline's analogue of Prudence's latent-ring shrink actuator.
     */
    std::size_t pressure_drain_batch = 8;
};

/// Baseline allocator: SLUB-style caching + callback-based deferral.
class SlubAllocator final : public Allocator
{
  public:
    SlubAllocator(GracePeriodDomain& domain, const SlubConfig& config);
    ~SlubAllocator() override;

    const char* kind() const override { return "slub"; }

    void* kmalloc(std::size_t size) override;
    void kfree(void* p) override;
    void kfree_deferred(void* p) override;

    CacheId create_cache(const std::string& name,
                         std::size_t object_size) override;
    void* cache_alloc(CacheId cache) override;
    void cache_free(CacheId cache, void* p) override;
    void cache_free_deferred(CacheId cache, void* p) override;

    CacheStatsSnapshot cache_snapshot(CacheId cache) const override;
    std::vector<CacheStatsSnapshot> snapshots() const override;
    BuddyAllocator& page_allocator() override { return buddy_; }
    void quiesce() override;
    void drain_thread() override { drain_calling_thread(); }
    void set_deferred_admission(unsigned pct) override;
    std::size_t reclaim_ready() override;
    std::string validate() override;

    /// Default probes plus the baseline's distinguishing signal: the
    /// callback-engine backlog (the paper's §3 growth curve).
    void register_telemetry_probes(telemetry::ProbeGroup& group,
                                   const std::string& prefix = "") override;

    /// Callback-engine activity (backlog = extended object lifetimes).
    CallbackEngineStats callback_stats() const;

  private:
    /// Per-CPU state: the object cache behind its own tiny lock.
    struct alignas(kCacheLineSize) PerCpu
    {
        SpinLock lock;
        ObjectCache cache;
        /**
         * Lock-free replacement for `cache` (DESIGN.md §14), non-null
         * when SlubConfig::lockfree_pcpu: alloc, free and — above all
         * — callback-invoked frees (engine drainer threads hammering
         * a victim CPU) exchange objects by ring CAS, leaving `lock`
         * to the legacy A/B leg and validate().
         */
        std::unique_ptr<LockFreeRing> ring;

        PerCpu(std::size_t capacity, bool lockfree) : cache(capacity)
        {
            if (lockfree)
                ring = std::make_unique<LockFreeRing>(capacity);
        }
    };

    static_assert(alignof(PerCpu) == kCacheLineSize,
                  "PerCpu must be cache-line aligned");
    static_assert(sizeof(PerCpu) % kCacheLineSize == 0,
                  "adjacent PerCpu instances must not share a line");

    /// One slab cache: node-level pool + per-CPU layer.
    struct Cache
    {
        SlabPool pool;
        std::vector<std::unique_ptr<PerCpu>> cpus;
        /// Position in caches_ (indexes the per-thread magazines).
        std::size_t index = 0;

        Cache(std::string name, std::size_t object_size,
              BuddyAllocator& buddy, PageOwnerTable& owners,
              unsigned ncpus, bool lockfree);
    };

    Cache& cache_ref(CacheId id) const;
    Cache* cache_of_object(const void* p) const;

    void* alloc_impl(Cache& c);
    void free_impl(Cache& c, void* p, bool from_callback);

    // ---- thread-local magazine layer (same shape as Prudence's;
    // DESIGN.md §9) ----
    ThreadMagazines& thread_state();
    std::size_t magazine_capacity_for(const Cache& c) const;
    void* magazine_alloc_slow(Cache& c, ThreadMagazines& t,
                              Magazine& m);
    void magazine_flush(Cache& c, ThreadMagazines& t, Magazine& m,
                        std::size_t n);
    void drain_table(ThreadMagazines& t);
    void drain_calling_thread() const;
    /// Refill the object cache from node slabs (grows if needed).
    /// Returns true when at least one object was added.
    bool refill(Cache& c, ObjectCache& cache);
    /// Pop up to @p want objects from node slabs (grows if needed)
    /// into @p out — the refill primitive of the lock-free leg, which
    /// has no ObjectCache to fill. @return objects delivered.
    std::size_t refill_batch(Cache& c, void** out, std::size_t want);
    /// Spill @p n cold objects from the cache back into their slabs.
    void flush(Cache& c, ObjectCache& cache, std::size_t n);
    /// Return @p k specific objects to their slabs (node lock inside).
    void flush_batch(Cache& c, void* const* objs, std::size_t k);
    /// Release free slabs beyond the retention limit.
    void shrink(Cache& c);

    static void deferred_free_cb(void* ctx, void* obj);

    GracePeriodDomain& domain_;
    BuddyAllocator buddy_;
    PageOwnerTable owners_;
    CpuRegistry cpu_registry_;
    /// Magazine knob (from SlubConfig; 0 = layer disabled).
    std::size_t magazine_capacity_;
    /// Lock-free per-CPU toggle (from SlubConfig; DESIGN.md §14).
    bool lockfree_pcpu_;
    /// Governor admission-restriction drain width (from SlubConfig).
    std::size_t pressure_drain_batch_;
    /// Per-thread magazine tables (drain-on-thread-exit). Shut down
    /// explicitly in the destructor body, before members die.
    mutable ThreadCacheRegistry magazine_registry_;

    /// Hard cap on caches per allocator; keeps cache lookup lock-free
    /// (fixed storage + atomic count).
    static constexpr std::size_t kMaxCaches = kMaxSlabCaches;

    mutable std::mutex caches_mutex_;  ///< guards cache creation only
    std::array<std::unique_ptr<Cache>, kMaxCaches> caches_;
    std::atomic<std::size_t> cache_count_{0};

    /// Declared last: destroyed first, draining callbacks while the
    /// caches still exist.
    std::unique_ptr<CallbackEngine> engine_;
};

}  // namespace prudence

#endif  // PRUDENCE_SLUB_SLUB_ALLOCATOR_H
