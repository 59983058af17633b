/**
 * @file
 * Deterministic unit tests for the Prudence allocator: every
 * Algorithm 1 path, driven by a ManualRcuDomain with the maintenance
 * thread disabled (maintenance_pass() is called explicitly).
 */
#include <gtest/gtest.h>

#include <cstring>
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

TEST(Prudence, HintedSelectionAvoidsDeferredHeavySlabs)
{
    // Figure 5 scenario: slab B's live objects are all deferred; a
    // refill should prefer other slabs so B can drain to empty and be
    // released, reducing fragmentation.
    ManualRcuDomain domain;
    PrudenceConfig cfg = manual_config();
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("fig5", 1024);
    std::size_t per_slab = compute_slab_geometry(1024).objects_per_slab;

    // Allocate three slabs' worth.
    std::vector<void*> objs;
    for (std::size_t i = 0; i < per_slab * 3; ++i)
        objs.push_back(alloc.cache_alloc(id));
    // Defer everything (slabs become premoved free candidates).
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);
    domain.advance();
    alloc.quiesce();
    auto s = alloc.cache_snapshot(id);
    // All three slabs' objects were reclaimable; fragmentation-aware
    // shrink releases the excess ones.
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_LE(s.current_slabs,
              static_cast<std::int64_t>(
                  compute_slab_geometry(1024).free_slab_limit) +
                  2);
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
    cfg.hinted_slab_selection = false;
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
