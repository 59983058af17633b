/**
 * @file
 * Tests for the per-CPU page caches in front of the buddy allocator
 * (DESIGN.md §10): watermark refill/drain batching, capacity-0
 * bypass, drain-on-quiesce exactness, checked-free on PCP-resident
 * pages, hard-capacity exactness, and an oversubscribed concurrency
 * hammer (meaningful under TSan).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/prudence_allocator.h"
#include "fault/fault_injector.h"
#include "page/buddy_allocator.h"
#include "page/page_types.h"
#include "rcu/rcu_domain.h"
#include "stats/counters.h"

namespace prudence {
namespace {

constexpr std::size_t kArena = 16 << 20;  // 16 MiB

/// Single-CPU config so every stash interaction is deterministic.
BuddyConfig
one_cpu(std::size_t batch, std::size_t high,
        std::size_t arena = kArena)
{
    BuddyConfig cfg;
    cfg.capacity_bytes = arena;
    cfg.cpus = 1;
    cfg.pcp_batch = batch;
    cfg.pcp_high_watermark = high;
    return cfg;
}

TEST(Pcp, RefillPullsOneBatchPerMiss)
{
    BuddyAllocator buddy(one_cpu(/*batch=*/4, /*high=*/8));
    ASSERT_TRUE(buddy.pcp_enabled());

    // First alloc misses and refills: one block to the caller, the
    // remaining batch-1 stashed — all under ONE global acquisition.
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    auto s = buddy.stats();
    EXPECT_EQ(s.pcp_misses, 1u);
    EXPECT_EQ(s.pcp_refills, 1u);
    EXPECT_EQ(s.pcp_hits, 0u);
    EXPECT_EQ(s.lock_acquisitions, 1u);
    EXPECT_EQ(buddy.pcp_cached_blocks(0), 3u);

    // The next three allocs are CPU-local hits: no lock traffic.
    std::vector<void*> blocks{p};
    for (int i = 0; i < 3; ++i) {
        void* q = buddy.alloc_pages(0);
        ASSERT_NE(q, nullptr);
        blocks.push_back(q);
    }
    s = buddy.stats();
    EXPECT_EQ(s.pcp_hits, 3u);
    EXPECT_EQ(s.lock_acquisitions, 1u);
    EXPECT_EQ(buddy.pcp_cached_blocks(0), 0u);

    // A fifth alloc misses again and pulls the next batch.
    void* q = buddy.alloc_pages(0);
    ASSERT_NE(q, nullptr);
    blocks.push_back(q);
    s = buddy.stats();
    EXPECT_EQ(s.pcp_misses, 2u);
    EXPECT_EQ(s.pcp_refills, 2u);
    EXPECT_EQ(s.lock_acquisitions, 2u);

    for (void* b : blocks)
        buddy.free_pages(b, 0);
    buddy.drain_pcp();
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, DrainPastHighWatermarkMovesOneBatch)
{
    BuddyAllocator buddy(one_cpu(/*batch=*/4, /*high=*/8));

    std::vector<void*> blocks;
    for (int i = 0; i < 13; ++i) {
        void* p = buddy.alloc_pages(0);
        ASSERT_NE(p, nullptr);
        blocks.push_back(p);
    }
    // 13 allocs = 4 refills of 4, so 3 refill remainders sit in the
    // stash already. Frees then stash locally until the count passes
    // the watermark, at which point one batch moves back under one
    // global acquisition: 3 -> 4..9 (drain, -4) -> 5..9 (drain, -4)
    // -> 5..8.
    for (void* p : blocks)
        buddy.free_pages(p, 0);
    auto s = buddy.stats();
    EXPECT_EQ(s.pcp_drains, 2u);
    EXPECT_EQ(buddy.pcp_cached_blocks(0), 8u);
    EXPECT_EQ(s.pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, WatermarkZeroBypassesTheLayer)
{
    // Both the legacy constructor and an explicit zero watermark run
    // the plain global path: no PCP stats, a lock acquisition per op.
    BuddyAllocator legacy(kArena);
    EXPECT_FALSE(legacy.pcp_enabled());

    BuddyAllocator buddy(one_cpu(/*batch=*/8, /*high=*/0));
    EXPECT_FALSE(buddy.pcp_enabled());
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    buddy.free_pages(p, 0);
    auto s = buddy.stats();
    EXPECT_EQ(s.pcp_hits, 0u);
    EXPECT_EQ(s.pcp_misses, 0u);
    EXPECT_EQ(s.pcp_refills, 0u);
    EXPECT_EQ(s.pcp_drains, 0u);
    EXPECT_EQ(s.pcp_cached_pages, 0);
    EXPECT_EQ(s.lock_acquisitions, 2u);
    EXPECT_EQ(buddy.free_blocks(0), 0u);  // fully coalesced
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, DrainOnQuiesceMakesFreeBlocksExact)
{
    BuddyAllocator buddy(one_cpu(/*batch=*/8, /*high=*/32));

    // Hot stashes: integrity must hold mid-flight (PCP pages are
    // accounted as free-but-cached), and free_blocks() knowingly
    // excludes them until a drain.
    std::vector<void*> blocks;
    for (int i = 0; i < 40; ++i)
        blocks.push_back(buddy.alloc_pages(1));
    for (void* p : blocks)
        buddy.free_pages(p, 1);
    EXPECT_GT(buddy.pcp_cached_blocks(1), 0u);
    EXPECT_TRUE(buddy.check_integrity());

    std::size_t cached = buddy.pcp_cached_blocks(1);
    EXPECT_EQ(buddy.drain_pcp(), cached);
    EXPECT_EQ(buddy.pcp_cached_blocks(1), 0u);
    EXPECT_EQ(buddy.stats().pcp_cached_pages, 0);
    EXPECT_TRUE(buddy.check_integrity());

    // Quiescent exactness: everything coalesced back to max order.
    std::size_t free_pages = 0;
    for (unsigned order = 0; order <= kMaxPageOrder; ++order)
        free_pages += buddy.free_blocks(order) * order_pages(order);
    EXPECT_EQ(free_pages, buddy.capacity_pages());
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
}

using PcpDeathTest = ::testing::Test;

TEST(PcpDeathTest, DoubleFreeOfPcpResidentPageAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BuddyAllocator buddy(one_cpu(/*batch=*/4, /*high=*/8));
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    buddy.free_pages(p, 0);  // now resident in the CPU-0 stash
    EXPECT_DEATH(buddy.free_pages(p, 0),
                 "double free \\(page resident in a per-CPU page "
                 "cache\\)");
}

TEST(Pcp, ExhaustionStaysExactByDrainingStashes)
{
    // Hard-capacity contract with PCP on: refill remainders stashed
    // on (possibly remote) CPUs must not manufacture a spurious OOM —
    // the allocator drains every stash before reporting failure.
    BuddyConfig cfg = one_cpu(/*batch=*/8, /*high=*/32, 1 << 20);
    cfg.cpus = 4;
    BuddyAllocator buddy(cfg);
    std::vector<void*> blocks;
    for (;;) {
        void* p = buddy.alloc_pages(0);
        if (p == nullptr)
            break;
        blocks.push_back(p);
    }
    EXPECT_EQ(blocks.size(), buddy.capacity_pages());
    EXPECT_EQ(buddy.stats().failed_allocs, 1u);
    for (void* p : blocks)
        buddy.free_pages(p, 0);
    buddy.drain_pcp();
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, MixedOrderChurnKeepsIntegrity)
{
    // Orders above kPcpMaxOrder bypass the stashes entirely; mixing
    // them with cached orders exercises merge decisions against
    // PCP-resident buddies (which must never coalesce).
    BuddyAllocator buddy(one_cpu(/*batch=*/4, /*high=*/8));
    std::mt19937_64 rng(7);
    std::vector<std::pair<void*, unsigned>> held;
    for (int i = 0; i < 4000; ++i) {
        if (held.empty() || (rng() & 1)) {
            auto order = static_cast<unsigned>(rng() % 6);  // 0..5
            void* p = buddy.alloc_pages(order);
            if (p != nullptr)
                held.emplace_back(p, order);
        } else {
            std::size_t idx = rng() % held.size();
            buddy.free_pages(held[idx].first, held[idx].second);
            held[idx] = held.back();
            held.pop_back();
        }
    }
    EXPECT_TRUE(buddy.check_integrity());
    for (auto& [p, order] : held)
        buddy.free_pages(p, order);
    buddy.drain_pcp();
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, RefillFaultFallsBackToGlobalPath)
{
    auto& fi = fault::FaultInjector::instance();
    fi.reset(/*seed=*/1);
    fault::SitePolicy always;
    always.every_nth = 1;
    fi.arm(fault::SiteId::kPcpRefill, always);

    BuddyAllocator buddy(one_cpu(/*batch=*/4, /*high=*/8));
    // Every refill is refused, so every alloc takes the single-block
    // global path — but still succeeds.
    std::vector<void*> blocks;
    for (int i = 0; i < 8; ++i) {
        void* p = buddy.alloc_pages(0);
        ASSERT_NE(p, nullptr);
        blocks.push_back(p);
    }
    auto s = buddy.stats();
    EXPECT_EQ(s.pcp_refills, 0u);
    EXPECT_EQ(s.pcp_misses, 8u);
    EXPECT_EQ(s.lock_acquisitions, 8u);
    fi.reset(0);
    for (void* p : blocks)
        buddy.free_pages(p, 0);
    buddy.drain_pcp();
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, OversubscribedHammerIsSafe)
{
    // More threads than virtual CPUs: several threads share each
    // stash lock while others drain/refill against the global lists.
    // Run under the tsan preset this is the PCP race detector.
    BuddyConfig cfg = one_cpu(/*batch=*/4, /*high=*/8);
    cfg.cpus = 2;
    BuddyAllocator buddy(cfg);

    constexpr unsigned kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&buddy, &go, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            std::mt19937_64 rng(t + 1);
            std::vector<std::pair<void*, unsigned>> held;
            for (int i = 0; i < kOpsPerThread; ++i) {
                if (held.empty() || (rng() & 1)) {
                    auto order = static_cast<unsigned>(rng() % 4);
                    void* p = buddy.alloc_pages(order);
                    if (p != nullptr)
                        held.emplace_back(p, order);
                } else {
                    std::size_t idx = rng() % held.size();
                    buddy.free_pages(held[idx].first,
                                     held[idx].second);
                    held[idx] = held.back();
                    held.pop_back();
                }
            }
            for (auto& [p, order] : held)
                buddy.free_pages(p, order);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads)
        th.join();
    buddy.drain_pcp();
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Pcp, AllocatorQuiesceDrainsPageCaches)
{
    // End-to-end: slab churn through PrudenceAllocator parks pages in
    // the stashes; quiesce() (the documented drain point) returns
    // them, so the post-quiesce page accounting is exact.
    RcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = 8 << 20;
    cfg.cpus = 2;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);

    std::mt19937_64 rng(11);
    std::vector<std::pair<void*, bool>> held;
    for (int i = 0; i < 20000; ++i) {
        if (held.empty() || (rng() & 1)) {
            void* p = alloc.kmalloc(64 + (rng() % 512));
            if (p != nullptr)
                held.emplace_back(p, rng() & 1);
        } else {
            auto [p, defer] = held.back();
            held.pop_back();
            if (defer)
                alloc.kfree_deferred(p);
            else
                alloc.kfree(p);
        }
    }
    for (auto& [p, defer] : held)
        alloc.kfree(p);

    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
    BuddyAllocator& buddy = alloc.page_allocator();
    EXPECT_EQ(buddy.stats().pcp_cached_pages, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(PeakGauge, SampleNeverReportsPeakBelowValue)
{
    // Unit check for the coherent sampling contract (counters.h):
    // sample() clamps the racy peak up to the level it just read.
    PeakGauge g;
    g.add(5);
    auto s = g.sample();
    EXPECT_EQ(s.value, 5);
    EXPECT_EQ(s.peak, 5);
    g.sub(2);
    s = g.sample();
    EXPECT_EQ(s.value, 3);
    EXPECT_EQ(s.peak, 5);

    // Concurrent smoke: a sampler racing adders must never observe
    // the impossible peak < value state.
    PeakGauge h;
    std::atomic<bool> stop{false};
    std::thread sampler([&h, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
            auto snap = h.sample();
            ASSERT_GE(snap.peak, snap.value);
        }
    });
    std::vector<std::thread> adders;
    for (int t = 0; t < 4; ++t) {
        adders.emplace_back([&h] {
            for (int i = 0; i < 20000; ++i) {
                h.add(3);
                h.sub(3);
            }
        });
    }
    for (auto& th : adders)
        th.join();
    stop.store(true, std::memory_order_release);
    sampler.join();
    EXPECT_EQ(h.get(), 0);
}

}  // namespace
}  // namespace prudence
