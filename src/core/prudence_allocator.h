/**
 * @file
 * The Prudence dynamic memory allocator (the paper's contribution).
 *
 * Prudence is a slab allocator tightly integrated with the
 * grace-period state of a procrastination-based synchronization
 * mechanism. Deferred objects are *visible* to the allocator:
 *
 *  - free_deferred() places the object, tagged with the current
 *    grace-period epoch, into the per-CPU latent cache (or, past the
 *    latent-cache limit, into the owning slab's latent ring).
 *  - The allocation slow path merges grace-period-complete latent
 *    objects straight back into the object cache — no callback, no
 *    external processing, no extended lifetime.
 *  - Refill and flush sizes account for latent occupancy; a
 *    maintenance thread pre-flushes latent caches during idle time;
 *    slabs are pre-moved between node lists when deferrals foreshadow
 *    the move; refill takes the oldest slab that is usable once its
 *    safe deferred objects merge, which keeps the cache from growing
 *    while usable slabs remain; and OOM falls back to waiting for a
 *    grace period while deferred memory is outstanding.
 *
 * This file implements Algorithm 1 of the paper; the function names
 * mirror the pseudocode (malloc → cache_alloc/alloc_impl,
 * FREE_DEFERRED → cache_free_deferred/free_deferred_impl,
 * REFILL_OBJECT_CACHE → refill, MERGE_CACHES → merge_caches,
 * PRE_MOVE_SLAB → pre_move_slab). The public entry points are the
 * magazine hit paths; the *_impl functions hold every boundary.
 */
#ifndef PRUDENCE_CORE_PRUDENCE_ALLOCATOR_H
#define PRUDENCE_CORE_PRUDENCE_ALLOCATOR_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/allocator.h"
#include "core/prudence_config.h"
#include "page/buddy_allocator.h"
#include "rcu/grace_period.h"
#include "slab/latent_ring.h"
#include "slab/magazine.h"
#include "slab/magazine_depot.h"
#include "slab/magazine_front.h"
#include "slab/object_cache.h"
#include "slab/page_owner.h"
#include "slab/slab_pool.h"
#include "sync/cacheline.h"
#include "sync/cpu_registry.h"
#include "sync/spinlock.h"

namespace prudence {

/// The Prudence allocator.
class PrudenceAllocator final : public Allocator
{
  public:
    PrudenceAllocator(GracePeriodDomain& domain,
                      const PrudenceConfig& config);
    ~PrudenceAllocator() override;

    const char* kind() const override { return "prudence"; }

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

    /// Current latent-ring admission fraction in percent
    /// (set_deferred_admission(); 100 = nominal).
    unsigned deferred_admission() const
    {
        return latent_admission_pct_.load(std::memory_order_relaxed);
    }

    /**
     * Install @p fn to be notified (with the rung number, 1-3) each
     * time the OOM ladder escalates — the hook the reclamation
     * governor uses to fold the ladder into its terminal pressure
     * level (DESIGN.md §13). Called from the allocating thread's OOM
     * slow path with no allocator lock held; must be cheap and must
     * not call back into the allocator. Pass an empty function to
     * uninstall; install before traffic starts (not thread-safe
     * against concurrent OOM).
     */
    void set_pressure_listener(std::function<void(int)> fn)
    {
        pressure_listener_ = std::move(fn);
    }

    /**
     * Run one maintenance sweep (latent merging + pre-flush) over
     * every cache and CPU. The background thread calls this
     * periodically; tests call it directly for determinism.
     */
    void maintenance_pass();

    /// The active configuration (ablation benches report it).
    const PrudenceConfig& config() const { return config_; }

    /// Objects currently held in the calling thread's magazine for
    /// @p cache (test introspection; 0 when magazines are off or the
    /// thread has none).
    std::size_t magazine_object_count(CacheId cache) const;

    /// Deferred objects buffered (not yet epoch-tagged) in the
    /// calling thread's magazine for @p cache.
    std::size_t magazine_defer_count(CacheId cache) const;

    /**
     * Drain depot full blocks beyond @p keep_blocks per cache back to
     * slab freelists (governor trim_depot actuator, DESIGN.md §13/§14
     * — the depot analogue of the buddy layer's trim_pcp). Safe
     * deferred blocks are harvested to freelists too; blocks whose
     * grace period is open are untouched. @return objects released.
     */
    std::size_t trim_depot(std::size_t keep_blocks) override;

    /// Default probes plus the lock-free depot occupancy gauges
    /// (alloc.depot_* — the governor's trim_depot inputs).
    void register_telemetry_probes(telemetry::ProbeGroup& group,
                                   const std::string& prefix = "") override;

    /// Objects held in depot full blocks across caches (telemetry).
    std::size_t depot_full_objects() const;
    /// Objects held in depot deferred blocks across caches.
    std::size_t depot_deferred_objects() const;
    /// Depot blocks created across caches (arena footprint).
    std::size_t depot_blocks_created() const;

  private:
    /// Per-CPU state: object cache + latent cache + rate estimators.
    struct alignas(kCacheLineSize) PerCpu
    {
        SpinLock lock;
        ObjectCache cache;
        /// Deferred objects awaiting their grace period; capacity ==
        /// object-cache capacity (the paper's latent-cache limit).
        LatentRing latent;

        /// Event counters for the pre-flush aggressiveness decision
        /// (owner-updated under lock; maintenance reads deltas).
        /// Aligned onto their own cache line so maintenance-thread
        /// reads never contend with the line holding the lock.
        alignas(kCacheLineSize) std::uint64_t alloc_events = 0;
        std::uint64_t free_events = 0;
        std::uint64_t defer_events = 0;
        std::uint64_t seen_alloc_events = 0;
        std::uint64_t seen_free_events = 0;
        std::uint64_t seen_defer_events = 0;

        /// Set when a future object-cache overflow is foreseen
        /// (Algorithm 1 line 43: SCHEDULE_IDLE_PREFLUSH).
        bool preflush_requested = false;

        explicit PerCpu(std::size_t capacity)
            : cache(capacity), latent(capacity)
        {
        }
    };

    // No false sharing: PerCpu instances occupy whole cache lines,
    // and the maintenance-read event counters sit on a different
    // line than the spinlock the owning CPU spins on.
    static_assert(alignof(PerCpu) == kCacheLineSize,
                  "PerCpu must be cache-line aligned");
    static_assert(sizeof(PerCpu) % kCacheLineSize == 0,
                  "adjacent PerCpu instances must not share a line");
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
    static_assert(offsetof(PerCpu, alloc_events) % kCacheLineSize == 0,
                  "event counters must start a fresh cache line");
    static_assert(offsetof(PerCpu, alloc_events) >= kCacheLineSize,
                  "lock and event counters must not share a line");
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

    /// One slab cache: node-level pool + per-CPU layer.
    struct Cache
    {
        SlabPool pool;
        std::vector<std::unique_ptr<PerCpu>> cpus;
        /// Position in caches_ (the per-thread magazine tables are
        /// indexed by it).
        std::size_t index = 0;
        /// Decaying high-water mark of deferred_outstanding, updated
        /// by maintenance. Smooths the deferred-aware shrink
        /// retention so a momentary drain between grace periods does
        /// not trigger a shrink storm followed by regrowth.
        std::atomic<std::int64_t> retention_hint{0};
        /// Lock-free magazine depot (DESIGN.md §14). Block budget 0
        /// (lockfree_pcpu off / magazines off) inert: every exchange
        /// attempt falls back to the locked splice.
        std::unique_ptr<MagazineDepot> depot;

        Cache(std::string name, std::size_t object_size,
              BuddyAllocator& buddy, PageOwnerTable& owners,
              unsigned ncpus);
    };

    static constexpr std::size_t kMaxCaches = kMaxSlabCaches;

    Cache& cache_ref(CacheId id) const;
    Cache* cache_of_object(const void* p) const;

    /// Slow paths behind the magazine hit paths of cache_alloc,
    /// cache_free and cache_free_deferred (DESIGN.md §9 "Leaf hit
    /// path"): out of line so the hit paths stay leaves. They take
    /// the CacheId so the id check (cache_ref's assert) runs here,
    /// not on the hit path.
    [[gnu::noinline]] void* alloc_impl(CacheId cache);
    /// One allocation attempt; sets *oom when memory was exhausted.
    void* alloc_attempt(Cache& c, bool* oom);
    /// OOM escalation (Algorithm 1 lines 31-32): expedite, then wait
    /// for grace periods with backoff, re-attempting after each rung;
    /// records oom_failures and returns nullptr when all rungs fail.
    void* oom_ladder(Cache& c);
    /// True when any cache has deferred objects outstanding (the OOM
    /// escalation's "is waiting worthwhile?" predicate).
    bool any_cache_has_deferred() const;
    [[gnu::noinline]] void free_impl(CacheId cache, void* p);
    [[gnu::noinline]] void free_deferred_impl(CacheId cache, void* p);

    // ---- thread-local magazine layer (DESIGN.md §9) ----

    /// The thread's cached completed-epoch snapshot, re-read from the
    /// domain only when its completion generation has moved. Stale
    /// values are conservative (<= truth), never unsafe.
    GpEpoch refresh_completed(ThreadMagazines& t);
    /// Magazine-empty path: refill from the per-CPU layer (one lock
    /// acquisition for ~capacity/2 objects) and pop one object.
    void* magazine_alloc_slow(Cache& c, ThreadMagazines& t,
                              Magazine& m, bool* oom);
    /// Magazine-full path: flush @p n cold objects to the per-CPU
    /// layer under one lock acquisition.
    void magazine_flush(Cache& c, ThreadMagazines& t, Magazine& m,
                        std::size_t n);
    /// Deferral-buffer-full path: tag the whole batch with ONE
    /// defer_epoch() read (conservative: >= each member's true defer
    /// epoch) and push it into the per-CPU latent cache, spilling to
    /// latent slabs when saturated.
    void magazine_spill_defers(Cache& c, ThreadMagazines& t,
                               Magazine& m);
    /// Fold the thread's stat deltas into the shared counters and the
    /// per-CPU event rates. Caller holds pc.lock.
    void flush_thread_stats(PerCpu& pc, CacheStats& stats,
                            ThreadCacheStats& ts);
    /// Spill every cache's buffered deferrals (OOM path: makes them
    /// visible to any_cache_has_deferred()/reclaim).
    void spill_all_defers(ThreadMagazines& t);

    // ---- lock-free depot paths (DESIGN.md §14) ----

    /// True when the depot fronts the per-CPU layer for @p c.
    bool depot_enabled(const Cache& c) const
    {
        return config_.lockfree_pcpu && c.depot != nullptr &&
               c.depot->block_budget() > 0;
    }
    /// Depot block budget per cache: 0 (inert) unless the lock-free
    /// layer and the magazine layer it rides are both on.
    std::size_t depot_budget() const
    {
        return (config_.lockfree_pcpu && config_.magazine_capacity > 0)
                   ? kDepotBlockBudget
                   : 0;
    }
    /// Claim a reusable depot block: a shared full block, else the
    /// oldest deferred block whose grace period completed (harvested:
    /// members become reusable, deferred accounting drops). nullptr
    /// when nothing reusable (the miss is attributed to
    /// depot_miss_cold or depot_miss_gp_pending).
    DepotMagazine* depot_pop_reusable(Cache& c, ThreadMagazines& t,
                                      CacheStats& stats);
    /// Sweep @p c's ripe deferred buckets: convert every block whose
    /// grace period completed into a full block (maintenance +
    /// trim_depot). @return objects made reusable.
    std::size_t depot_harvest_safe(Cache& c);
    /// Release full depot blocks beyond @p keep_full_blocks back to
    /// slab freelists (retention trim). @return objects released.
    std::size_t depot_release_full(Cache& c,
                                   std::size_t keep_full_blocks);
    /// Drain the whole depot to slab freelists (reclaim/quiesce/trim):
    /// full blocks and safe deferred blocks free their members;
    /// unsafe deferred blocks spill to the slabs' latent rings
    /// (epochs preserved). With @p keep_full_blocks > 0, that many
    /// full blocks are retained. @return objects released.
    std::size_t depot_drain(Cache& c, std::size_t keep_full_blocks);
    /// Drain one thread's table completely: spill deferrals, flush
    /// objects, fold stats. Runs on thread exit and at shutdown.
    void drain_table(ThreadMagazines& t);
    /// Drain the *calling* thread's magazines so snapshot/validate/
    /// quiesce see balanced accounting (documented drain point).
    void drain_calling_thread() const;

    /// MERGE_CACHES: move latent objects with epoch <= @p completed
    /// into the object cache. Caller holds pc.lock. @return merged
    /// count.
    std::size_t merge_caches(Cache& c, PerCpu& pc, GpEpoch completed);

    /// REFILL_OBJECT_CACHE body: move objects from node slabs into
    /// the cache (grow if necessary). Caller holds pc.lock and
    /// supplies its completed-epoch view.
    /// @return true when at least one object was added.
    bool refill(Cache& c, PerCpu& pc, GpEpoch completed);

    /// The refill source: the oldest partial, else free, slab with a
    /// free object after merging its safe latent entries, moved to
    /// the head of the partial list; the unusable slabs passed over
    /// rotate to their list's tail (node lock held).
    SlabHeader* select_slab(Cache& c, GpEpoch completed);

    /// Spill @p n cold objects to their slabs. Caller holds pc.lock.
    void flush(Cache& c, PerCpu& pc, std::size_t n);

    /// Record a batch of deferred objects in their slabs' latent
    /// rings under a single node-lock acquisition (with pre-movement
    /// inline). The entries must be exclusively owned by the caller
    /// (popped from a latent ring); holding a per-CPU lock is
    /// permitted (lock order pc -> node -> slab) but not required.
    void spill_entries(Cache& c, const LatentRing::Entry* entries,
                       std::size_t n);

    /// PRE_MOVE_SLAB: adjust list membership after a deferral.
    /// Caller holds the node lock.
    void pre_move_slab(Cache& c, SlabHeader* slab);

    /// Release free slabs beyond the retention limit (merging safe
    /// latent entries first; slabs with unsafe deferrals stay).
    void shrink(Cache& c);

    /// Free slabs to retain right now: the baseline threshold plus —
    /// with deferred_aware_shrink — enough slabs to rehouse the
    /// outstanding deferred objects.
    std::size_t free_retention_limit(Cache& c) const;

    /// Move a deferred object into its slab's latent ring.
    void push_to_latent_slab(Cache& c, void* obj, GpEpoch epoch);

    /// merge_safe_latent + deferred accounting (no slab lock taken
    /// when the slab holds no deferred object).
    std::size_t merge_slab_latent(Cache& c, SlabHeader* slab,
                                  GpEpoch completed);

    /// Pre-flush one CPU's latent cache toward its latent slabs.
    void preflush_cpu(Cache& c, PerCpu& pc);

    /// Pull every currently-safe deferred object of @p c back into
    /// circulation and shrink excess free slabs. With @p fill_caches
    /// the per-CPU object caches are topped up from the latent caches
    /// (OOM recovery: the retry wants hits); without it everything
    /// returns to slab freelists (quiesce: minimal footprint).
    void reclaim_cache(Cache& c, bool fill_caches);

    void maintenance_main();

    /// Apply the current admission fraction to one ring. Caller holds
    /// the owning per-CPU lock.
    void apply_admission(LatentRing& ring) const;

    GracePeriodDomain& domain_;
    PrudenceConfig config_;
    /// Latent-ring admission fraction (percent of capacity; governor
    /// actuator). Relaxed: readers apply it lazily under pc.lock.
    std::atomic<unsigned> latent_admission_pct_{100};
    /// OOM-ladder escalation listener (rung 1-3); empty = none.
    std::function<void(int)> pressure_listener_;
    BuddyAllocator buddy_;
    PageOwnerTable owners_;
    CpuRegistry cpu_registry_;
    /// Per-thread magazine tables and the hit-path lookup
    /// (drain-on-thread-exit). The destructor shuts this down
    /// explicitly before any member is destroyed, so hook ordering
    /// never matters.
    MagazineFront front_;

    mutable std::mutex caches_mutex_;  ///< guards cache creation only
    /// Serializes background sweeps (maintenance pass, governor
    /// trim_depot) against the accounting readers (validate). Sweep
    /// transfers hold objects in limbo between structures — e.g. a
    /// full depot block popped but not yet pushed to slab freelists —
    /// so an unsynchronized validate() would see them accounted
    /// nowhere. Never held across domain_ waits.
    mutable std::mutex sweep_mutex_;
    std::array<std::unique_ptr<Cache>, kMaxCaches> caches_;
    std::atomic<std::size_t> cache_count_{0};

    std::atomic<bool> running_{false};
    std::thread maintenance_thread_;
};

}  // namespace prudence

#endif  // PRUDENCE_CORE_PRUDENCE_ALLOCATOR_H
