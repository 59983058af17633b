/**
 * @file
 * Cross-module integration tests: allocator + RCU + data structures
 * + page allocator behaving together, including the paper's §3.5/§5.5
 * endurance contrast in miniature.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/allocator_factory.h"
#include "ds/rcu_list.h"
#include "perturb/perturb.h"
#include "rcu/rcu_domain.h"
#include "stats/memory_sampler.h"

namespace prudence {
namespace {

/**
 * Miniature Figure 3: continuous list updates under a background-
 * throttled baseline exhaust a small arena (OOM), while Prudence in
 * the identical setup reaches equilibrium.
 */
TEST(Integration, EnduranceContrastSlubOomsPrudenceDoesNot)
{
    constexpr std::size_t kArena = 24 << 20;
    constexpr int kUpdates = 200000;

    auto drive = [](Allocator& alloc, RcuDomain& rcu) {
        CacheId id = alloc.create_cache("endurance_obj", 512);
        std::uint64_t failures = 0;
        for (int i = 0; i < kUpdates; ++i) {
            void* fresh = alloc.cache_alloc(id);
            if (fresh == nullptr) {
                ++failures;
                continue;
            }
            alloc.cache_free_deferred(id, fresh);
        }
        (void)rcu;
        return failures;
    };

    std::uint64_t slub_failures;
    {
        RcuConfig rcfg;
        rcfg.gp_interval = std::chrono::microseconds{200};
        RcuDomain rcu(rcfg);
        SlubConfig cfg;
        cfg.arena_bytes = kArena;
        cfg.cpus = 1;
        // Background-throttled processing only (the Figure 3 regime):
        // arrival outruns the drainer.
        cfg.callback.inline_batch_limit = 0;
        cfg.callback.batch_limit = 10;
        cfg.callback.tick = std::chrono::microseconds{1000};
        auto alloc = make_slub_allocator(rcu, cfg);
        // Stall every drainer tick for the drive, so the arena runs
        // out however slowly the updater runs (a sanitizer build can
        // slow it until the throttled drainer keeps up); quiesce
        // then drains the backlog inline.
        perturb::Injector& injector = perturb::Injector::instance();
        injector.reset(1);
        perturb::Policy stall;
        stall.every_nth = 1;
        injector.arm(perturb::SiteId::kDrainerStall, stall);
        slub_failures = drive(*alloc, rcu);
        injector.reset(0);
        alloc->quiesce();
    }

    std::uint64_t prudence_failures;
    {
        RcuConfig rcfg;
        rcfg.gp_interval = std::chrono::microseconds{200};
        RcuDomain rcu(rcfg);
        PrudenceConfig cfg;
        cfg.arena_bytes = kArena;
        cfg.cpus = 1;
        auto alloc = make_prudence_allocator(rcu, cfg);
        prudence_failures = drive(*alloc, rcu);
        alloc->quiesce();
    }

    EXPECT_GT(slub_failures, 0u)
        << "baseline should exhaust the arena under throttling";
    EXPECT_EQ(prudence_failures, 0u)
        << "Prudence must reach equilibrium, not OOM";
}

TEST(Integration, MemorySamplerTracksAllocatorUsage)
{
    RcuDomain rcu;
    PrudenceConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 2;
    auto alloc = make_prudence_allocator(rcu, cfg);

    MemorySampler sampler(
        [&] { return alloc->page_allocator().bytes_in_use(); },
        std::chrono::milliseconds(2));
    sampler.start();

    CacheId id = alloc->create_cache("sampled", 1024);
    std::vector<void*> objs;
    for (int i = 0; i < 20000; ++i)
        objs.push_back(alloc->cache_alloc(id));
    // Poll (deadline-bounded) instead of sleeping a fixed interval:
    // the sampler ticks every 2ms, but under load a fixed sleep races
    // the sampling thread and makes the test timing-sensitive.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto wait_for_sample = [&](auto&& pred) {
        while (std::chrono::steady_clock::now() < deadline) {
            auto got = sampler.samples();
            if (pred(got))
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    // Barrier 1: the sampler has demonstrably seen the full working
    // set live.
    wait_for_sample([](const auto& got) {
        for (const auto& s : got)
            if (s.value > 20u << 20)
                return true;
        return false;
    });
    for (void* p : objs)
        alloc->cache_free(id, p);
    alloc->quiesce();
    // Barrier 2: the sampler has seen the post-reclaim tail (and has
    // enough samples for the timeline assertions below).
    wait_for_sample([](const auto& got) {
        std::uint64_t high = 0;
        for (const auto& s : got)
            high = std::max(high, s.value);
        return got.size() >= 5u && !got.empty() &&
               got.back().value < high / 2;
    });
    sampler.stop();

    auto samples = sampler.samples();
    ASSERT_GE(samples.size(), 5u);
    std::uint64_t peak = 0;
    for (const auto& s : samples)
        peak = std::max(peak, s.value);
    // The 20k x 1KiB working set must be visible in the timeline, and
    // the tail must drop well below the peak after reclaim.
    EXPECT_GT(peak, 20u << 20);
    EXPECT_LT(samples.back().value, peak / 2);
}

/// The paper's turnkey-replacement claim: the same data-structure
/// code runs unchanged on either allocator, only the deferral
/// machinery underneath differs.
TEST(Integration, TurnkeyReplacementAcrossAllocators)
{
    for (bool use_prudence : {false, true}) {
        RcuConfig rcfg;
        rcfg.gp_interval = std::chrono::microseconds{100};
        RcuDomain rcu(rcfg);
        std::unique_ptr<Allocator> alloc;
        if (use_prudence) {
            PrudenceConfig cfg;
            cfg.arena_bytes = 64 << 20;
            cfg.cpus = 2;
            alloc = make_prudence_allocator(rcu, cfg);
        } else {
            SlubConfig cfg;
            cfg.arena_bytes = 64 << 20;
            cfg.cpus = 2;
            cfg.callback.inline_batch_limit = 10;
            alloc = make_slub_allocator(rcu, cfg);
        }

        RcuList<std::uint64_t> list(rcu, *alloc);
        for (std::uint64_t k = 0; k < 200; ++k)
            ASSERT_TRUE(list.insert(k, k));
        for (int round = 0; round < 20; ++round)
            for (std::uint64_t k = 0; k < 200; ++k)
                ASSERT_TRUE(list.update(k, k + round));
        std::uint64_t v = 0;
        ASSERT_TRUE(list.lookup(100, &v));
        EXPECT_EQ(v, 119u);
    }
}

TEST(Integration, DosFloodIsBoundedForPrudence)
{
    // §3.4: a malicious open/close flood. With Prudence the deferred
    // backlog is bounded by latent capacity + slab rings, and memory
    // stays bounded as grace periods cycle.
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{100};
    RcuDomain rcu(rcfg);
    PrudenceConfig cfg;
    cfg.arena_bytes = 32 << 20;
    cfg.cpus = 2;
    auto alloc = make_prudence_allocator(rcu, cfg);
    CacheId filp = alloc->create_cache("filp", 256);

    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> attackers;
    for (int t = 0; t < 2; ++t) {
        attackers.emplace_back([&] {
            for (int i = 0; i < 150000; ++i) {
                void* f = alloc->cache_alloc(filp);
                if (f == nullptr) {
                    failures.fetch_add(1);
                    continue;
                }
                alloc->cache_free_deferred(filp, f);
            }
        });
    }
    for (auto& t : attackers)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    alloc->quiesce();
    EXPECT_LT(alloc->page_allocator().bytes_in_use(), 8u << 20);
}

TEST(Integration, MultipleAllocatorsCoexist)
{
    // Comparison harnesses run both allocators in one process; their
    // registries, arenas and thread-local caches must not interfere.
    RcuDomain rcu;
    SlubConfig scfg;
    scfg.arena_bytes = 32 << 20;
    scfg.cpus = 2;
    scfg.callback.inline_batch_limit = 10;
    auto slub = make_slub_allocator(rcu, scfg);
    PrudenceConfig pcfg;
    pcfg.arena_bytes = 32 << 20;
    pcfg.cpus = 2;
    auto prud = make_prudence_allocator(rcu, pcfg);

    CacheId cs = slub->create_cache("coexist", 128);
    CacheId cp = prud->create_cache("coexist", 128);
    std::vector<void*> from_slub, from_prud;
    for (int i = 0; i < 1000; ++i) {
        from_slub.push_back(slub->cache_alloc(cs));
        from_prud.push_back(prud->cache_alloc(cp));
    }
    for (void* p : from_slub)
        slub->kfree(p);
    for (void* p : from_prud)
        prud->kfree_deferred(p);
    slub->quiesce();
    prud->quiesce();
    EXPECT_EQ(slub->cache_snapshot(cs).live_objects, 0);
    EXPECT_EQ(prud->cache_snapshot(cp).live_objects, 0);
    EXPECT_EQ(prud->cache_snapshot(cp).deferred_outstanding, 0);
}

}  // namespace
}  // namespace prudence
