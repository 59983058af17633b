/**
 * @file
 * Deterministic unit tests for the Prudence allocator: every
 * Algorithm 1 path, driven by a ManualRcuDomain with the maintenance
 * thread disabled (maintenance_pass() is called explicitly).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/prudence_allocator.h"
#include "rcu/manual_domain.h"
#include "slab/geometry.h"

namespace prudence {
namespace {

/// Deterministic setup: manual epochs, single virtual CPU, no
/// background maintenance.
PrudenceConfig
manual_config(std::size_t arena = 64 << 20)
{
    PrudenceConfig cfg;
    cfg.arena_bytes = arena;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    return cfg;
}

/// Index of the slab holding @p p (slabs are slab_bytes-aligned
/// offsets into the arena).
std::size_t
slab_index(PrudenceAllocator& alloc, const SlabGeometry& g, void* p)
{
    return static_cast<std::size_t>(static_cast<std::byte*>(p) -
                                    alloc.page_allocator().base()) /
           g.slab_bytes;
}

/// Allocate until the next refill, then the rest of its @p batch
/// objects (magazines off: the per-CPU cache is LIFO, so these are
/// exactly the objects that refill moved).
std::vector<void*>
next_refill_batch(PrudenceAllocator& alloc, CacheId id,
                  std::size_t batch)
{
    std::uint64_t refills = alloc.cache_snapshot(id).refills;
    std::vector<void*> got;
    while (alloc.cache_snapshot(id).refills == refills) {
        void* p = alloc.cache_alloc(id);
        EXPECT_NE(p, nullptr);
        got.assign(1, p);
    }
    while (got.size() < batch)
        got.push_back(alloc.cache_alloc(id));
    return got;
}

TEST(Prudence, KmallocRoundTrip)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    void* p = alloc.kmalloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5A, 100);
    alloc.kfree(p);
}

TEST(Prudence, OversizeKmallocReturnsNull)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    EXPECT_EQ(alloc.kmalloc(8193), nullptr);
}

TEST(Prudence, LiveObjectsAreDistinct)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("distinct", 64);
    std::set<void*> live;
    for (int i = 0; i < 1000; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(live.insert(p).second);
    }
    for (void* p : live)
        alloc.cache_free(id, p);
}

TEST(Prudence, DeferredObjectNotReusedBeforeGracePeriod)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("gp_safety", 128);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    alloc.cache_free_deferred(id, p);
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 1);

    // Before the grace period: p must never come back.
    std::vector<void*> before;
    for (int i = 0; i < 300; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        EXPECT_NE(q, p) << "reused inside its grace period";
        before.push_back(q);
    }
    for (void* q : before)
        alloc.cache_free(id, q);
}

TEST(Prudence, DeferredObjectReusableAfterGracePeriod)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("gp_reuse", 128);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    alloc.cache_free_deferred(id, p);
    // Flush the thread-local deferral buffer so the batch is
    // epoch-tagged before the grace period below (batched deferral
    // tags at spill time, not at cache_free_deferred time).
    alloc.drain_thread();
    domain.advance();

    // Eliminating extended lifetimes: p comes back through the latent
    // merge within a bounded number of allocations — no external
    // processing step required.
    std::size_t bound =
        compute_slab_geometry(128).cache_capacity * 4;
    std::vector<void*> got;
    bool reused = false;
    for (std::size_t i = 0; i < bound; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        got.push_back(q);
        if (q == p) {
            reused = true;
            break;
        }
    }
    EXPECT_TRUE(reused) << "latent merge never returned the object";
    const CacheStatsSnapshot snap = alloc.cache_snapshot(id);
    EXPECT_EQ(snap.deferred_outstanding, 0);
    // With no maintenance pass, only a grace-period-checked merge on
    // the refill path can return the object (the depot's
    // deferred-block scan or the latent-cache merge), and both count
    // a merge hit.
    EXPECT_GT(snap.latent_merge_hits, 0u);
    for (void* q : got)
        alloc.cache_free(id, q);
}

TEST(Prudence, LatentOverflowSpillsToLatentSlab)
{
    ManualRcuDomain domain;
    // Locked leg: this test exercises the latent-ring overflow ->
    // latent-slab -> premove chain, which the depot fast path (spills
    // become whole deferred depot blocks) deliberately bypasses.
    PrudenceConfig cfg = manual_config();
    cfg.lockfree_pcpu = false;
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("overflow", 128);
    std::size_t cap = compute_slab_geometry(128).cache_capacity;

    std::vector<void*> objs;
    for (std::size_t i = 0; i < cap * 3; ++i)
        objs.push_back(alloc.cache_alloc(id));
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);

    auto s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.deferred_outstanding,
              static_cast<std::int64_t>(cap * 3));
    // More deferrals than the latent cache holds: the excess reached
    // latent slabs and triggered pre-movement.
    EXPECT_GT(s.premoves, 0u);
}

TEST(Prudence, PreMovedSlabsReclaimedAfterGracePeriod)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("premove_reclaim", 512);

    // Fill several slabs worth of objects, then defer-free all.
    std::vector<void*> objs;
    for (int i = 0; i < 1000; ++i)
        objs.push_back(alloc.cache_alloc(id));
    auto peak_pages = alloc.page_allocator().stats().pages_in_use;
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);

    // Grace period completes; quiesce reclaims every latent object
    // and shrinks the now-empty slabs.
    alloc.quiesce();
    auto s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_GT(s.shrinks, 0u);
    EXPECT_LT(alloc.page_allocator().stats().pages_in_use, peak_pages);
}

TEST(Prudence, PreflushRequestedAndExecuted)
{
    ManualRcuDomain domain;
    // Locked leg: pre-flush triggers on per-CPU object/latent cache
    // occupancy, which stays empty while the depot absorbs magazine
    // flushes and deferral spills.
    PrudenceConfig cfg = manual_config();
    cfg.lockfree_pcpu = false;
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("preflush", 128);
    std::size_t cap = compute_slab_geometry(128).cache_capacity;

    // Build a full object cache AND a loaded latent cache: allocate
    // 2*cap, free cap (fills the object cache), defer cap (fills the
    // latent cache) — together they exceed the capacity, which is the
    // paper's pre-flush trigger.
    std::vector<void*> objs;
    for (std::size_t i = 0; i < 2 * cap; ++i)
        objs.push_back(alloc.cache_alloc(id));
    for (std::size_t i = 0; i < cap; ++i)
        alloc.cache_free(id, objs[i]);
    for (std::size_t i = cap; i < 2 * cap; ++i)
        alloc.cache_free_deferred(id, objs[i]);

    EXPECT_EQ(alloc.cache_snapshot(id).preflushes, 0u);
    alloc.maintenance_pass();
    auto s = alloc.cache_snapshot(id);
    EXPECT_GT(s.preflushes, 0u);
    // Deferred objects moved to latent slabs stay deferred (their
    // grace period has not completed).
    EXPECT_EQ(s.deferred_outstanding, static_cast<std::int64_t>(cap));
}

TEST(Prudence, MaintenanceMergesAfterGracePeriod)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("maint_merge", 128);

    void* p = alloc.cache_alloc(id);
    alloc.cache_free_deferred(id, p);
    // Spill the thread-local deferral buffer so its epoch tag
    // precedes the grace period the maintenance sweep observes.
    alloc.drain_thread();
    domain.advance();
    alloc.maintenance_pass();
    // The maintenance sweep merged the safe latent object back into
    // the object cache — no allocation was needed to reclaim it.
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 0);
}

TEST(Prudence, OomDeferralWaitsAndSucceeds)
{
    // Arena sized so that live + deferred exhausts it: the allocation
    // that would fail must wait for the (manual) grace period, pull
    // the deferred memory back and succeed (Algorithm 1 lines 31-32).
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config(/*arena=*/2 << 20);
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("oom_defer", 4096);

    std::vector<void*> objs;
    for (;;) {
        void* p = alloc.cache_alloc(id);
        if (p == nullptr)
            break;
        objs.push_back(p);
    }
    ASSERT_GT(objs.size(), 50u);
    // Everything is live; now defer-free it all and allocate again.
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);

    void* p = alloc.cache_alloc(id);
    EXPECT_NE(p, nullptr)
        << "OOM deferral failed to reclaim deferred memory";
    auto s = alloc.cache_snapshot(id);
    EXPECT_GT(s.oom_waits, 0u);
    alloc.cache_free(id, p);
}

TEST(Prudence, OomWithoutDeferredFailsCleanly)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config(/*arena=*/1 << 20);
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("oom_hard", 4096);
    std::vector<void*> objs;
    for (;;) {
        void* p = alloc.cache_alloc(id);
        if (p == nullptr)
            break;
        objs.push_back(p);
    }
    auto s = alloc.cache_snapshot(id);
    EXPECT_GT(s.oom_failures, 0u);
    EXPECT_EQ(s.oom_waits, 0u);  // nothing deferred, no point waiting
    for (void* p : objs)
        alloc.cache_free(id, p);
}

TEST(Prudence, OomDeferralDisabledFailsFast)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config(/*arena=*/1 << 20);
    cfg.oom_deferral = false;
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("oom_off", 4096);
    std::vector<void*> objs;
    for (;;) {
        void* p = alloc.cache_alloc(id);
        if (p == nullptr)
            break;
        objs.push_back(p);
    }
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);
    EXPECT_EQ(alloc.cache_alloc(id), nullptr);
    EXPECT_EQ(alloc.cache_snapshot(id).oom_waits, 0u);
}

TEST(Prudence, FlushAccountsForLatentOccupancy)
{
    // With a loaded latent cache, an overflow flush must evict more
    // objects than the bare half-capacity baseline. Locked leg: sized
    // flush is a property of the per-CPU spill path the depot
    // replaces with whole-block exchanges.
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config();
    cfg.lockfree_pcpu = false;
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("sized_flush", 128);
    std::size_t cap = compute_slab_geometry(128).cache_capacity;

    std::vector<void*> objs;
    for (std::size_t i = 0; i < 3 * cap; ++i)
        objs.push_back(alloc.cache_alloc(id));
    // Load the latent cache halfway.
    for (std::size_t i = 0; i < cap / 2; ++i)
        alloc.cache_free_deferred(id, objs[i]);
    // Now overflow the object cache with immediate frees.
    for (std::size_t i = cap / 2; i < 3 * cap; ++i)
        alloc.cache_free(id, objs[i]);
    auto s = alloc.cache_snapshot(id);
    EXPECT_GT(s.flushes, 0u);
    // All immediate frees accounted; nothing lost.
    EXPECT_EQ(s.free_calls, 3 * cap - cap / 2);
    EXPECT_EQ(s.live_objects, 0);
}

TEST(Prudence, QuiesceReclaimsEverything)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("quiesce", 256);
    std::vector<void*> objs;
    for (int i = 0; i < 3000; ++i)
        objs.push_back(alloc.cache_alloc(id));
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);
    alloc.quiesce();
    auto s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_EQ(s.live_objects, 0);
    // Retained free slabs plus the slabs pinned by objects parked in
    // the per-CPU object cache.
    SlabGeometry g = compute_slab_geometry(256);
    std::int64_t allowed = static_cast<std::int64_t>(
        g.free_slab_limit +
        (g.cache_capacity + g.objects_per_slab - 1) /
            g.objects_per_slab +
        2);
    EXPECT_LE(s.current_slabs, allowed);
    EXPECT_TRUE(alloc.page_allocator().check_integrity());
}

TEST(Prudence, RefillReusesSlabBehindUnusablePrefix)
{
    // Eleven partial slabs with no free object and only unripe
    // deferrals sit ahead of a partial slab with free objects. A
    // refill must reach that slab rather than grow the cache, and the
    // unusable prefix must rotate behind the slabs the next scan
    // should see first.
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config();
    cfg.magazine_capacity = 0;  // per-CPU caches only: exact refills
    PrudenceAllocator alloc(domain, cfg);
    constexpr std::size_t kSize = 384;
    CacheId id = alloc.create_cache("rotate", kSize);
    const SlabGeometry g = compute_slab_geometry(kSize);
    const std::size_t per_slab = g.objects_per_slab;
    // Refills then take whole slabs, so every allocated slab ends up
    // full and the object cache empty.
    ASSERT_EQ(g.refill_target % per_slab, 0u);

    // 11 unusable slabs, the target slab, and 6 filler slabs.
    constexpr std::size_t kUnusable = 11;
    constexpr std::size_t kFillers = 6;
    constexpr std::size_t kSlabs = kUnusable + 1 + kFillers;
    std::map<std::size_t, std::vector<void*>> by_slab;
    for (std::size_t i = 0; i < kSlabs * per_slab; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        by_slab[slab_index(alloc, g, p)].push_back(p);
    }
    ASSERT_EQ(by_slab.size(), kSlabs);
    std::vector<std::vector<void*>> slabs;
    for (auto& kv : by_slab)
        slabs.push_back(kv.second);
    std::set<std::size_t> unusable;
    for (std::size_t s = 0; s < kUnusable; ++s)
        unusable.insert(slab_index(alloc, g, slabs[s][0]));
    const std::vector<void*>& target = slabs[kUnusable];

    // Defer five objects of each unusable slab, round-robin. The
    // latent cache overflows on the last one and spills its oldest
    // half to the slabs' latent rings, pre-moving all eleven from
    // the full list to the partial list, in order.
    for (std::size_t round = 0; round < 5; ++round) {
        for (std::size_t s = 0; s < kUnusable; ++s)
            alloc.cache_free_deferred(id, slabs[s].at(round));
    }
    ASSERT_EQ(alloc.cache_snapshot(id).premoves, kUnusable);

    // Free all but one target object, then filler objects until the
    // object cache overflows: the flush returns the target's objects
    // first, appending it to the partial list behind the unusable
    // slabs, then the fillers' (each keeps one live object).
    std::vector<void*> frees(target.begin() + 1, target.end());
    for (std::size_t k = 1; frees.size() <= g.cache_capacity; ++k) {
        for (std::size_t f = 0; f < kFillers &&
                                frees.size() <= g.cache_capacity;
             ++f) {
            frees.push_back(slabs[kUnusable + 1 + f].at(k));
        }
    }
    for (void* p : frees)
        alloc.cache_free(id, p);
    ASSERT_EQ(alloc.cache_snapshot(id).flushes, 1u);
    // Empty the object cache of the one object freed after the flush.
    ASSERT_EQ(alloc.cache_alloc(id), frees.back());

    const auto before = alloc.cache_snapshot(id);
    std::vector<void*> first = next_refill_batch(alloc, id, g.refill_target);
    std::set<void*> got(first.begin(), first.end());
    for (std::size_t i = 1; i < target.size(); ++i)
        EXPECT_TRUE(got.count(target[i])) << "target object " << i;
    EXPECT_EQ(alloc.cache_snapshot(id).grows, before.grows);

    // Every unusable slab's deferrals ripen. The next scan starts at
    // the fillers the first refill left partial, not at the rotated
    // slabs that would now be usable too.
    domain.advance();
    std::vector<void*> second =
        next_refill_batch(alloc, id, g.refill_target);
    for (void* p : second)
        EXPECT_EQ(unusable.count(slab_index(alloc, g, p)), 0u);
    EXPECT_EQ(alloc.cache_snapshot(id).grows, before.grows);
    EXPECT_EQ(alloc.validate(), "");
}

TEST(Prudence, GrownSlabHeadsThePartialList)
{
    // Every partial slab is unusable, so a refill grows. The grown
    // slab keeps free objects after that refill and must head the
    // partial list: once the unusable slabs ripen, the next refill
    // still drains the grown slab first instead of re-walking them.
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config();
    cfg.magazine_capacity = 0;  // per-CPU caches only: exact refills
    PrudenceAllocator alloc(domain, cfg);
    constexpr std::size_t kSize = 32;
    CacheId id = alloc.create_cache("grow_front", kSize);
    const SlabGeometry g = compute_slab_geometry(kSize);
    const std::size_t per_slab = g.objects_per_slab;
    const std::size_t batch = g.refill_target;
    ASSERT_GT(per_slab, batch);

    // Allocate until the refills end on a slab boundary: every slab
    // full, object cache empty.
    std::size_t n = batch;
    while (n % per_slab != 0)
        n += batch;
    std::map<std::size_t, std::vector<void*>> by_slab;
    for (std::size_t i = 0; i < n; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        by_slab[slab_index(alloc, g, p)].push_back(p);
    }
    ASSERT_EQ(by_slab.size(), n / per_slab);

    // Defer round-robin from eleven slabs until the latent cache
    // overflows into their latent rings and pre-moves all of them to
    // the partial list, where they hold no free object.
    constexpr std::size_t kUnusable = 11;
    std::vector<std::vector<void*>*> unusable;
    for (auto& kv : by_slab) {
        if (unusable.size() < kUnusable)
            unusable.push_back(&kv.second);
    }
    for (std::size_t round = 0;
         alloc.cache_snapshot(id).premoves < kUnusable; ++round) {
        ASSERT_LT(round + 1, per_slab);
        for (std::vector<void*>* objs : unusable)
            alloc.cache_free_deferred(id, (*objs)[round]);
    }
    ASSERT_EQ(alloc.cache_snapshot(id).premoves, kUnusable);

    const std::uint64_t grows = alloc.cache_snapshot(id).grows;
    std::vector<void*> first = next_refill_batch(alloc, id, batch);
    EXPECT_EQ(alloc.cache_snapshot(id).grows, grows + 1);
    const std::size_t grown = slab_index(alloc, g, first[0]);
    for (void* p : first)
        EXPECT_EQ(slab_index(alloc, g, p), grown);

    domain.advance();
    std::vector<void*> second = next_refill_batch(alloc, id, batch);
    std::size_t from_grown = 0;
    for (void* p : second)
        from_grown += slab_index(alloc, g, p) == grown ? 1 : 0;
    EXPECT_EQ(from_grown, per_slab - batch);
    EXPECT_EQ(alloc.cache_snapshot(id).grows, grows + 1);
    EXPECT_EQ(alloc.validate(), "");
}

TEST(Prudence, AblationSwitchesStillCorrect)
{
    // Every optimization disabled: the allocator must remain correct
    // (objects unique, GP respected), merely slower.
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config();
    cfg.merge_on_alloc = false;
    cfg.partial_refill = false;
    cfg.sized_flush = false;
    cfg.idle_preflush = false;
    cfg.slab_premove = false;
    cfg.oom_deferral = false;
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("ablated", 128);

    std::set<void*> live;
    std::vector<void*> deferred;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 100; ++i) {
            void* p = alloc.cache_alloc(id);
            ASSERT_NE(p, nullptr);
            EXPECT_TRUE(live.insert(p).second);
        }
        int k = 0;
        for (void* p : live) {
            if (k++ % 2 == 0)
                deferred.push_back(p);
        }
        for (void* p : deferred) {
            live.erase(p);
            alloc.cache_free_deferred(id, p);
        }
        deferred.clear();
        domain.advance();
    }
    for (void* p : live)
        alloc.cache_free(id, p);
    alloc.quiesce();
    EXPECT_EQ(alloc.cache_snapshot(id).live_objects, 0);
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 0);
}

TEST(Prudence, StatsAccountingInvariants)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    CacheId id = alloc.create_cache("accounting", 64);
    std::vector<void*> objs;
    for (int i = 0; i < 500; ++i)
        objs.push_back(alloc.cache_alloc(id));
    for (int i = 0; i < 200; ++i)
        alloc.cache_free(id, objs[i]);
    for (int i = 200; i < 350; ++i)
        alloc.cache_free_deferred(id, objs[i]);

    auto s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.alloc_calls, 500u);
    EXPECT_EQ(s.free_calls, 200u);
    EXPECT_EQ(s.deferred_free_calls, 150u);
    EXPECT_EQ(s.live_objects, 150);
    EXPECT_LE(s.cache_hits, s.alloc_calls);
    EXPECT_GE(s.peak_live_objects, 500);
    for (int i = 350; i < 500; ++i)
        alloc.cache_free(id, objs[i]);
}

TEST(Prudence, KfreeDeferredDispatchesByPointer)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, manual_config());
    void* p = alloc.kmalloc(1000);  // kmalloc-1024
    ASSERT_NE(p, nullptr);
    alloc.kfree_deferred(p);
    for (const auto& s : alloc.snapshots()) {
        if (s.cache_name == "kmalloc-1024") {
            EXPECT_EQ(s.deferred_free_calls, 1u);
            EXPECT_EQ(s.deferred_outstanding, 1);
        }
    }
    alloc.quiesce();
}

}  // namespace
}  // namespace prudence
