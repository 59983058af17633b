/**
 * @file
 * Unit and stress tests for the thread-local magazine layer
 * (DESIGN.md §9): capacity clamping, refill/flush batch sizes,
 * deferral-buffer spills, conservative batch epoch tagging, drain on
 * thread exit, and the magazine_capacity = 0 bypass — for both the
 * Prudence allocator and the SLUB baseline.
 *
 * Deterministic tests use a ManualRcuDomain and a single virtual CPU;
 * the introspection hooks magazine_object_count()/magazine_defer_count()
 * read the *calling thread's* magazines, so the expectations below are
 * exact. Note cache_snapshot()/snapshots()/validate()/quiesce() drain
 * the calling thread's magazines first — tests that probe magazine
 * occupancy must do so before snapshotting.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "core/prudence_allocator.h"
#include "rcu/manual_domain.h"
#include "rcu/rcu_domain.h"
#include "slab/geometry.h"
#include "slub/slub_allocator.h"

namespace prudence {
namespace {

/// Deterministic setup: manual epochs, one virtual CPU, no background
/// maintenance, magazines of the given depth.
PrudenceConfig
mag_config(std::size_t capacity)
{
    PrudenceConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    cfg.magazine_capacity = capacity;
    return cfg;
}

/**
 * Free @p objs in order, then allocate as many: the magazine is a LIFO,
 * so they come back most recently freed first (the next-object
 * prefetch on each pop never reorders them). Frees them again at the
 * end; @p objs must fit in the magazine without a flush.
 */
template <typename Alloc>
void
expect_lifo_reuse(Alloc& alloc, CacheId id, const std::vector<void*>& objs)
{
    for (void* p : objs)
        alloc.cache_free(id, p);
    for (auto it = objs.rbegin(); it != objs.rend(); ++it)
        EXPECT_EQ(alloc.cache_alloc(id), *it);
    for (void* p : objs)
        alloc.cache_free(id, p);
}

// ---------------------------------------------------------------------
// Capacity bounds
// ---------------------------------------------------------------------

TEST(Magazine, CapacityClampedToObjectCacheCapacity)
{
    // 4096-byte objects have a per-CPU cache capacity well below the
    // requested 128, and the magazine must never be deeper than the
    // cache behind it. Observable through the refill batch: the first
    // allocation pulls capacity/2 objects and returns one.
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(128));
    CacheId id = alloc.create_cache("clamp", 4096);

    std::size_t cache_cap = compute_slab_geometry(4096).cache_capacity;
    ASSERT_LT(cache_cap, 128u);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(alloc.magazine_object_count(id), cache_cap / 2 - 1);
    alloc.cache_free(id, p);
}

TEST(Magazine, CapacityNeverExceedsHardCeiling)
{
    // Even when both the knob and the object-cache capacity allow
    // more, the magazine stays within kMaxMagazineCapacity (the
    // flush/spill scratch arrays are sized to it).
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(100000));
    CacheId id = alloc.create_cache("ceiling", 64);

    std::size_t cache_cap = compute_slab_geometry(64).cache_capacity;
    std::size_t expect_cap = std::min(cache_cap, kMaxMagazineCapacity);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(alloc.magazine_object_count(id), expect_cap / 2 - 1);
    alloc.cache_free(id, p);
}

// ---------------------------------------------------------------------
// Refill / flush batch sizes
// ---------------------------------------------------------------------

TEST(Magazine, RefillPullsHalfCapacityBatch)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(8));
    CacheId id = alloc.create_cache("refill", 128);

    // Empty magazine: the first alloc refills capacity/2 = 4 objects
    // under one lock acquisition and hands one out.
    std::vector<void*> got;
    got.push_back(alloc.cache_alloc(id));
    ASSERT_NE(got.back(), nullptr);
    EXPECT_EQ(alloc.magazine_object_count(id), 3u);

    // The next three come straight off the magazine...
    for (int i = 0; i < 3; ++i) {
        got.push_back(alloc.cache_alloc(id));
        ASSERT_NE(got.back(), nullptr);
    }
    EXPECT_EQ(alloc.magazine_object_count(id), 0u);

    // ...and the fifth triggers the next half-capacity refill.
    got.push_back(alloc.cache_alloc(id));
    ASSERT_NE(got.back(), nullptr);
    EXPECT_EQ(alloc.magazine_object_count(id), 3u);

    // 3 + 5 objects fill the magazine without a flush.
    expect_lifo_reuse(alloc, id, got);

    // The SLUB baseline shares the magazine front end.
    SlubConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.magazine_capacity = 8;
    SlubAllocator slub(domain, cfg);
    CacheId sid = slub.create_cache("slub_refill", 128);
    std::vector<void*> sgot;
    for (int i = 0; i < 5; ++i) {
        sgot.push_back(slub.cache_alloc(sid));
        ASSERT_NE(sgot.back(), nullptr);
    }
    expect_lifo_reuse(slub, sid, sgot);
}

TEST(Magazine, OverflowFlushesHalfCapacityPlusOne)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(8));
    CacheId id = alloc.create_cache("flush", 128);

    std::vector<void*> held;
    for (int i = 0; i < 16; ++i) {
        held.push_back(alloc.cache_alloc(id));
        ASSERT_NE(held.back(), nullptr);
    }

    // Fill the magazine to its capacity of 8...
    while (alloc.magazine_object_count(id) < 8u) {
        alloc.cache_free(id, held.back());
        held.pop_back();
    }
    // ...then one more free flushes the capacity/2 + 1 = 5 oldest
    // objects to the per-CPU cache and stores the new one: 8 - 5 + 1.
    alloc.cache_free(id, held.back());
    held.pop_back();
    EXPECT_EQ(alloc.magazine_object_count(id), 4u);

    for (void* p : held)
        alloc.cache_free(id, p);
}

TEST(Magazine, DeferBufferSpillsWhenFull)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(8));
    CacheId id = alloc.create_cache("spill", 128);

    std::vector<void*> held;
    for (int i = 0; i < 8; ++i) {
        held.push_back(alloc.cache_alloc(id));
        ASSERT_NE(held.back(), nullptr);
    }

    // Seven deferrals sit in the thread-local buffer; nothing has
    // reached the shared latent structures yet.
    for (int i = 0; i < 7; ++i) {
        alloc.cache_free_deferred(id, held.back());
        held.pop_back();
    }
    EXPECT_EQ(alloc.magazine_defer_count(id), 7u);

    // The eighth fills the buffer and spills the whole batch under
    // one epoch read.
    alloc.cache_free_deferred(id, held.back());
    held.pop_back();
    EXPECT_EQ(alloc.magazine_defer_count(id), 0u);
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 8);

    domain.advance();
    alloc.quiesce();
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 0);
    EXPECT_TRUE(alloc.validate().empty());
}

// ---------------------------------------------------------------------
// Batched epoch tagging (conservative, never premature)
// ---------------------------------------------------------------------

TEST(Magazine, SpillTagIsConservative)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(8));
    CacheId id = alloc.create_cache("tag", 128);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    alloc.cache_free_deferred(id, p);

    // The grace period completes while the object is still buffered;
    // the spill below tags the batch with the *current* epoch, which
    // postdates that completion. The object must therefore stay
    // unmerged (delayed reuse is the documented cost of batching)...
    domain.advance();
    alloc.drain_thread();
    alloc.maintenance_pass();
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 1);

    // ...until the *next* grace period covers the batch tag.
    domain.advance();
    alloc.maintenance_pass();
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 0);
    EXPECT_TRUE(alloc.validate().empty());
}

// ---------------------------------------------------------------------
// Per-thread statistics coalescing
// ---------------------------------------------------------------------

TEST(Magazine, StatsFoldAtBatchBoundaries)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(8));
    CacheId id = alloc.create_cache("stats", 128);

    std::vector<void*> held;
    for (int i = 0; i < 10; ++i) {
        held.push_back(alloc.cache_alloc(id));
        ASSERT_NE(held.back(), nullptr);
    }
    for (void* p : held)
        alloc.cache_free(id, p);

    // cache_snapshot() drains the calling thread first, so every
    // per-thread delta has been folded in by the time we look.
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.alloc_calls, 10u);
    EXPECT_EQ(s.free_calls, 10u);
    EXPECT_GT(s.cache_hits, 0u);
    EXPECT_EQ(s.live_objects, 0);
}

// ---------------------------------------------------------------------
// Drain on thread exit
// ---------------------------------------------------------------------

TEST(Magazine, ThreadExitDrainsMagazines)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(16));
    CacheId id = alloc.create_cache("exit", 128);

    std::thread worker([&] {
        std::vector<void*> pool;
        for (int i = 0; i < 64; ++i) {
            void* p = alloc.cache_alloc(id);
            ASSERT_NE(p, nullptr);
            pool.push_back(p);
        }
        for (void* p : pool)
            alloc.cache_free(id, p);
        // Exit with a non-empty magazine: the registry's thread-exit
        // hook must flush it, or live_objects stays inflated forever.
    });
    worker.join();

    alloc.quiesce();
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.alloc_calls, 64u);
    EXPECT_EQ(s.free_calls, 64u);
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(Magazine, ThreadExitSpillsDeferralBuffer)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(16));
    CacheId id = alloc.create_cache("exit_defer", 128);

    std::thread worker([&] {
        for (int i = 0; i < 5; ++i) {
            void* p = alloc.cache_alloc(id);
            ASSERT_NE(p, nullptr);
            alloc.cache_free_deferred(id, p);
        }
        // Exit with 5 buffered deferrals (< the spill threshold).
    });
    worker.join();

    // quiesce() synchronizes a grace period covering the exit-time
    // spill tag, then merges: the accounting must balance exactly.
    alloc.quiesce();
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_EQ(s.deferred_free_calls, 5u);
    EXPECT_TRUE(alloc.validate().empty());
}

// ---------------------------------------------------------------------
// magazine_capacity = 0 bypass
// ---------------------------------------------------------------------

TEST(Magazine, CapacityZeroBypassesLayer)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, mag_config(0));
    CacheId id = alloc.create_cache("bypass", 128);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    // No thread-local table is ever created; every count is shared
    // and per-operation, exactly as in the pre-magazine allocator.
    EXPECT_EQ(alloc.magazine_object_count(id), 0u);
    EXPECT_EQ(alloc.cache_snapshot(id).live_objects, 1);

    alloc.cache_free_deferred(id, p);
    EXPECT_EQ(alloc.magazine_defer_count(id), 0u);
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 1);

    // Per-op epoch tagging: safe immediately after one grace period.
    domain.advance();
    alloc.maintenance_pass();
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 0);
    EXPECT_TRUE(alloc.validate().empty());
}

// ---------------------------------------------------------------------
// SLUB baseline parity
// ---------------------------------------------------------------------

TEST(Magazine, SlubThreadExitDrainsMagazines)
{
    ManualRcuDomain domain;
    SlubConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.magazine_capacity = 16;
    SlubAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("slub_exit", 128);

    std::thread worker([&] {
        std::vector<void*> pool;
        for (int i = 0; i < 64; ++i) {
            void* p = alloc.cache_alloc(id);
            ASSERT_NE(p, nullptr);
            pool.push_back(p);
        }
        for (void* p : pool)
            alloc.cache_free(id, p);
    });
    worker.join();

    alloc.quiesce();
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.alloc_calls, 64u);
    EXPECT_EQ(s.free_calls, 64u);
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(Magazine, SlubCapacityZeroBypassesLayer)
{
    ManualRcuDomain domain;
    SlubConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.magazine_capacity = 0;
    SlubAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("slub_bypass", 128);

    void* p = alloc.cache_alloc(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(alloc.cache_snapshot(id).live_objects, 1);
    alloc.cache_free(id, p);
    EXPECT_EQ(alloc.cache_snapshot(id).live_objects, 0);
    EXPECT_TRUE(alloc.validate().empty());
}

// ---------------------------------------------------------------------
// Exact counters across the hit/slow split (DESIGN.md §9 "Leaf hit
// path"): a call is counted once, by the hit path or by the slow path
// it falls through to, never by both.
// ---------------------------------------------------------------------

/// Magazine depth of the drive below: with capacity 8 each refill
/// pulls 4, so 20 allocations cross the empty boundary five times, 20
/// frees cross the full one, and 12 deferrals spill the buffer once.
constexpr std::size_t kSplitCapacity = 8;
constexpr std::uint64_t kSplitAllocs = 20;
constexpr std::uint64_t kSplitDefers = 12;

/// On a fresh thread: a first-touch allocation and more, as many
/// frees, then kSplitDefers allocate-and-defer pairs. Thread exit
/// drains its magazines into the shared counters.
template <typename Alloc>
void
drive_fresh_thread(Alloc& alloc, CacheId id)
{
    std::thread worker([&] {
        std::vector<void*> held;
        for (std::uint64_t i = 0; i < kSplitAllocs; ++i) {
            held.push_back(alloc.cache_alloc(id));
            ASSERT_NE(held.back(), nullptr);
        }
        for (void* p : held)
            alloc.cache_free(id, p);
        for (std::uint64_t i = 0; i < kSplitDefers; ++i) {
            void* p = alloc.cache_alloc(id);
            ASSERT_NE(p, nullptr);
            alloc.cache_free_deferred(id, p);
        }
    });
    worker.join();
}

/// The counters after drive_fresh_thread (free_calls counts direct
/// frees only, not SLUB's grace-period callbacks). Every allocation is
/// either served without touching slabs (a hit) or makes exactly one
/// slab refill, so cache_hits is alloc_calls - refills.
template <typename Alloc>
void
expect_exact_split_counters(Alloc& alloc, CacheId id)
{
    alloc.quiesce();
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.alloc_calls, kSplitAllocs + kSplitDefers);
    EXPECT_EQ(s.free_calls, kSplitAllocs);
    EXPECT_EQ(s.deferred_free_calls, kSplitDefers);
    EXPECT_GT(s.refills, 0u);
    EXPECT_EQ(s.cache_hits, s.alloc_calls - s.refills);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(MagazineSplit, PrudenceCountsEachCallOnce)
{
    for (std::size_t capacity : {kSplitCapacity, std::size_t{0}}) {
        SCOPED_TRACE(capacity);
        ManualRcuDomain domain;
        PrudenceAllocator alloc(domain, mag_config(capacity));
        CacheId id = alloc.create_cache("split", 128);
        drive_fresh_thread(alloc, id);
        expect_exact_split_counters(alloc, id);
    }
}

SlubConfig
slub_split_config(std::size_t capacity)
{
    SlubConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.magazine_capacity = capacity;
    // Grace-period callbacks run only in quiesce()/reclaim_ready(),
    // on the calling thread.
    cfg.callback.background_drainer = false;
    cfg.callback.inline_batch_limit = 0;
    return cfg;
}

TEST(MagazineSplit, SlubCountsEachCallOnce)
{
    for (std::size_t capacity : {kSplitCapacity, std::size_t{0}}) {
        SCOPED_TRACE(capacity);
        ManualRcuDomain domain;
        SlubAllocator alloc(domain, slub_split_config(capacity));
        CacheId id = alloc.create_cache("slub_split", 128);
        drive_fresh_thread(alloc, id);
        expect_exact_split_counters(alloc, id);
    }
}

TEST(MagazineSplit, SlubCallbackFreesBypassMagazine)
{
    // The callbacks run on this thread, which owns a magazine with
    // room to spare: a callback-invoked free must still go to the
    // shared layer, or the drainer threads of a background engine
    // would strand objects in magazines that never drain.
    ManualRcuDomain domain;
    SlubAllocator alloc(domain, slub_split_config(kSplitCapacity));
    CacheId id = alloc.create_cache("slub_cb", 128);

    // The first-touch refill leaves two objects in the magazine.
    void* a = alloc.cache_alloc(id);
    void* b = alloc.cache_alloc(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    alloc.cache_free_deferred(id, a);
    alloc.cache_free_deferred(id, b);

    domain.advance();
    alloc.reclaim_ready();
    EXPECT_EQ(alloc.callback_stats().backlog, 0);
    // A magazine is LIFO: had the callbacks pushed a and b into it,
    // the next allocation would hand b back.
    void* next = alloc.cache_alloc(id);
    EXPECT_NE(next, a);
    EXPECT_NE(next, b);
    alloc.cache_free(id, next);

    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.free_calls, 1u);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_TRUE(alloc.validate().empty());
}

// ---------------------------------------------------------------------
// Concurrency: more threads than vCPUs hammering every entry point.
// Run under the tsan preset this exercises the registry, the shared
// per-CPU locks under magazine batch traffic, and concurrent
// drain_thread() against the fast paths of other threads.
// ---------------------------------------------------------------------

TEST(MagazineConcurrent, OversubscribedMixedHammer)
{
    RcuConfig rcu;
    rcu.gp_interval = std::chrono::microseconds{50};
    RcuDomain domain(rcu);

    PrudenceConfig cfg;
    cfg.arena_bytes = 256 << 20;
    cfg.cpus = 2;  // deliberately fewer CPUs than threads
    cfg.magazine_capacity = 16;
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("hammer", 192);

    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&alloc, id, t] {
            std::vector<void*> pool;
            std::mt19937 rng(t * 131 + 7);
            for (int i = 0; i < 15000; ++i) {
                int action = static_cast<int>(rng() % 4);
                if (action <= 1 || pool.empty()) {
                    if (void* p = alloc.cache_alloc(id)) {
                        std::memset(p, t + 1, 192);
                        pool.push_back(p);
                    }
                } else if (action == 2) {
                    alloc.cache_free(id, pool.back());
                    pool.pop_back();
                } else {
                    alloc.cache_free_deferred(id, pool.back());
                    pool.pop_back();
                }
                if (i % 4096 == 0)
                    alloc.drain_thread();
            }
            for (void* p : pool)
                alloc.cache_free(id, p);
        });
    }
    for (auto& th : threads)
        th.join();

    alloc.quiesce();
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_EQ(s.alloc_calls, s.free_calls + s.deferred_free_calls);
    EXPECT_TRUE(alloc.page_allocator().check_integrity());
    EXPECT_TRUE(alloc.validate().empty());
}

}  // namespace
}  // namespace prudence
