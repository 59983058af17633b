/**
 * @file
 * Tests for the lock-free per-CPU layer (DESIGN.md §14): the tagged
 * Treiber block stack, the bounded MPMC ring, and the magazine depot
 * wired into the Prudence allocator — CAS exactness, ABA-via-epochs
 * (reuse blocked until the grace period), toggle-off parity, the
 * near-zero lock-acquisition property, the trim_depot actuator, the
 * depot occupancy probes, and the deliberately broken unprotected
 * depot pop that the model checker must catch.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/prudence_allocator.h"
#include "rcu/manual_domain.h"
#include "perturb/perturb.h"
#include "perturb/ref_model.h"
#include "rcu/rcu_domain.h"
#include "slab/magazine_depot.h"
#include "sync/lockfree_ring.h"
#include "sync/lockfree_stack.h"
#include "telemetry/monitor.h"

namespace prudence {
namespace {

// ---------------------------------------------------------------------
// LockFreeBlockStack: CAS exactness.
// ---------------------------------------------------------------------

struct Node
{
    LockFreeBlockStack::Hook hook;
    int id = 0;
};

TEST(LockFreeStack, LifoOrderAndCountSingleThread)
{
    LockFreeBlockStack st;
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.pop(), nullptr);

    constexpr int kN = 64;
    std::vector<Node> nodes(kN);
    for (int i = 0; i < kN; ++i) {
        nodes[i].id = i;
        st.push(&nodes[i].hook);
        EXPECT_EQ(st.count(), static_cast<std::size_t>(i + 1));
    }
    EXPECT_FALSE(st.empty());

    for (int i = kN - 1; i >= 0; --i) {
        auto* h = st.pop();
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(reinterpret_cast<Node*>(h)->id, i) << "not LIFO";
    }
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.pop(), nullptr);
}

TEST(LockFreeStack, EveryBlockTransfersExactlyOnceUnderContention)
{
    // Type-stable arena, N pushers racing N poppers: every node must
    // come out exactly once, nothing lost, nothing duplicated.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    constexpr int kTotal = kThreads * kPerThread;

    LockFreeBlockStack st;
    std::vector<Node> nodes(kTotal);
    for (int i = 0; i < kTotal; ++i)
        nodes[i].id = i;

    std::vector<std::atomic<int>> popped(kTotal);
    for (auto& f : popped)
        f.store(0, std::memory_order_relaxed);
    std::atomic<int> total_popped{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                st.push(&nodes[t * kPerThread + i].hook);
        });
        threads.emplace_back([&] {
            while (total_popped.load(std::memory_order_relaxed) <
                   kTotal) {
                auto* h = st.pop();
                if (h == nullptr) {
                    std::this_thread::yield();
                    continue;
                }
                int id = reinterpret_cast<Node*>(h)->id;
                EXPECT_EQ(popped[id].fetch_add(1), 0)
                        << "node popped twice";
                total_popped.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();

    EXPECT_EQ(total_popped.load(), kTotal);
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.count(), 0u);
    for (int i = 0; i < kTotal; ++i)
        EXPECT_EQ(popped[i].load(), 1) << "node " << i << " lost";
}

TEST(LockFreeStack, RecycledBlocksStayExact)
{
    // Blocks cycling push→pop→push (the depot's empty-stack pattern,
    // the fast half of the ABA window): a small arena recycled many
    // times must never lose or duplicate a node.
    constexpr int kArena = 8;
    constexpr int kIters = 20000;
    LockFreeBlockStack st;
    std::vector<Node> nodes(kArena);
    for (auto& n : nodes)
        st.push(&n.hook);

    std::atomic<int> held{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                auto* h = st.pop();
                if (h == nullptr)
                    continue;
                held.fetch_add(1);
                held.fetch_sub(1);
                st.push(h);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(st.count(), static_cast<std::size_t>(kArena));
    std::set<LockFreeBlockStack::Hook*> seen;
    while (auto* h = st.pop())
        EXPECT_TRUE(seen.insert(h).second) << "duplicate block";
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kArena));
}

// ---------------------------------------------------------------------
// LockFreeRing: bounded MPMC exactness.
// ---------------------------------------------------------------------

TEST(LockFreeRing, FifoOrderCapacityAndFullEmpty)
{
    LockFreeRing ring(6);  // rounds up to 8
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.pop(), nullptr);

    int payload[8];
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.push(&payload[i]));
    EXPECT_FALSE(ring.push(&payload[0])) << "push into a full ring";
    EXPECT_EQ(ring.count(), 8u);

    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ring.pop(), &payload[i]) << "not FIFO";
    EXPECT_EQ(ring.pop(), nullptr);
    EXPECT_EQ(ring.count(), 0u);
}

TEST(LockFreeRing, MpmcTokensTransferExactlyOnce)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 10000;
    constexpr int kTotal = kProducers * kPerProducer;

    LockFreeRing ring(64);
    std::vector<int> tokens(kTotal);
    std::vector<std::atomic<int>> seen(kTotal);
    for (auto& f : seen)
        f.store(0, std::memory_order_relaxed);
    std::atomic<int> consumed{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kProducers; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerProducer; ++i) {
                int idx = t * kPerProducer + i;
                tokens[idx] = idx;
                while (!ring.push(&tokens[idx]))
                    std::this_thread::yield();
            }
        });
    }
    for (int t = 0; t < kConsumers; ++t) {
        threads.emplace_back([&] {
            while (consumed.load(std::memory_order_relaxed) < kTotal) {
                void* p = ring.pop();
                if (p == nullptr) {
                    std::this_thread::yield();
                    continue;
                }
                int idx = *static_cast<int*>(p);
                EXPECT_EQ(seen[idx].fetch_add(1), 0)
                        << "token consumed twice";
                consumed.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(consumed.load(), kTotal);
    EXPECT_EQ(ring.count(), 0u);
    for (int i = 0; i < kTotal; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "token " << i << " lost";
}

// ---------------------------------------------------------------------
// Depot wired into the allocator.
// ---------------------------------------------------------------------

PrudenceConfig
lockfree_config(bool lockfree, std::size_t magazine_capacity = 8)
{
    PrudenceConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    cfg.magazine_capacity = magazine_capacity;
    cfg.lockfree_pcpu = lockfree;
    return cfg;
}

std::uint64_t
total_lock_acquisitions(const Allocator& alloc)
{
    std::uint64_t total = 0;
    for (const auto& s : alloc.snapshots())
        total += s.pcpu_lock_acquisitions;
    return total;
}

std::uint64_t
total_depot_exchanges(const Allocator& alloc)
{
    std::uint64_t total = 0;
    for (const auto& s : alloc.snapshots())
        total += s.depot_exchanges;
    return total;
}

TEST(Depot, AbaRegressionReuseBlockedUntilGracePeriod)
{
    // The depot's ABA protection is the epoch machinery: a deferred
    // block must not re-enter circulation until its stamped grace
    // period completes, no matter how many allocs hammer the pop
    // path in between.
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, lockfree_config(true));
    CacheId id = alloc.create_cache("aba", 64);

    std::set<void*> deferred;
    for (int i = 0; i < 32; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        deferred.insert(p);
    }
    for (void* p : deferred)
        alloc.cache_free_deferred(id, p);
    alloc.drain_thread();  // spill the defer buffers into the depot
    ASSERT_GT(alloc.depot_deferred_objects(), 0u)
            << "workload never reached the depot deferred stack";

    // Grace period still open: none of the deferred objects may come
    // back, however hard we hit the allocation path.
    std::vector<void*> fresh;
    for (int i = 0; i < 256; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(deferred.count(q), 0u)
                << "deferred object reused inside its grace period";
        fresh.push_back(q);
    }
    for (void* q : fresh)
        alloc.cache_free(id, q);

    // Grace period closes: the deferred blocks become harvestable and
    // the allocator must eventually recycle them.
    domain.advance();
    domain.advance();
    std::size_t reused = 0;
    std::vector<void*> after;
    for (int i = 0; i < 512; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        reused += deferred.count(q);
        after.push_back(q);
    }
    EXPECT_GT(reused, 0u) << "deferred objects never recycled";
    for (void* q : after)
        alloc.cache_free(id, q);
    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
}

TEST(Depot, ToggleOffParityOnIdenticalWorkload)
{
    // The same deterministic workload on both legs must agree on
    // every externally visible property; only the lock-free leg may
    // touch the depot.
    auto run = [](bool lockfree) -> std::uint64_t {
        ManualRcuDomain domain;
        PrudenceAllocator alloc(domain, lockfree_config(lockfree));
        CacheId id = alloc.create_cache("parity", 96);
        std::vector<void*> pool;
        for (int round = 0; round < 50; ++round) {
            for (int i = 0; i < 20; ++i) {
                void* p = alloc.cache_alloc(id);
                if (p == nullptr) {
                    ADD_FAILURE() << "alloc failed";
                    return 0;
                }
                std::memset(p, 0x3C, 96);
                pool.push_back(p);
            }
            for (int i = 0; i < 10; ++i) {
                alloc.cache_free(id, pool.back());
                pool.pop_back();
            }
            for (int i = 0; i < 5; ++i) {
                alloc.cache_free_deferred(id, pool.back());
                pool.pop_back();
            }
            if (round % 8 == 0) {
                domain.advance();
                alloc.maintenance_pass();
            }
        }
        CacheStatsSnapshot mid = alloc.cache_snapshot(id);
        EXPECT_EQ(mid.live_objects,
                  static_cast<std::int64_t>(pool.size()));
        for (void* p : pool)
            alloc.cache_free(id, p);
        domain.advance();
        alloc.quiesce();
        EXPECT_EQ(alloc.validate(), "");
        CacheStatsSnapshot s = alloc.cache_snapshot(id);
        EXPECT_EQ(s.live_objects, 0);
        EXPECT_EQ(s.deferred_outstanding, 0);
        if (!lockfree) {
            EXPECT_EQ(total_depot_exchanges(alloc), 0u)
                    << "legacy leg touched the depot";
            EXPECT_EQ(alloc.depot_full_objects(), 0u);
            EXPECT_EQ(alloc.depot_deferred_objects(), 0u);
            EXPECT_EQ(alloc.depot_blocks_created(), 0u);
        }
        return s.alloc_calls;
    };
    std::uint64_t on = run(true);
    std::uint64_t off = run(false);
    EXPECT_EQ(on, off) << "legs diverged on op count";
}

TEST(Depot, LockFreeLegTakesAlmostNoPerCpuLocks)
{
    // The tentpole property: steady-state alloc/free churn on the
    // lock-free leg must not touch the per-CPU spinlocks (only cold
    // refills from the slab layer may). The legacy leg takes them on
    // every magazine exchange.
    auto churn = [](bool lockfree) {
        ManualRcuDomain domain;
        PrudenceAllocator alloc(domain, lockfree_config(lockfree));
        CacheId id = alloc.create_cache("locks", 64);
        // Warm up: populate magazines and the depot.
        std::vector<void*> warm;
        for (int i = 0; i < 512; ++i)
            warm.push_back(alloc.cache_alloc(id));
        for (void* p : warm)
            alloc.cache_free(id, p);
        std::uint64_t baseline = total_lock_acquisitions(alloc);
        // Steady state: burst alloc/free across magazine boundaries.
        constexpr int kOps = 20000;
        std::vector<void*> pool;
        for (int i = 0; i < kOps / 32; ++i) {
            for (int j = 0; j < 32; ++j)
                pool.push_back(alloc.cache_alloc(id));
            for (void* p : pool)
                alloc.cache_free(id, p);
            pool.clear();
        }
        return total_lock_acquisitions(alloc) - baseline;
    };
    std::uint64_t lockfree_acqs = churn(true);
    std::uint64_t legacy_acqs = churn(false);
    EXPECT_GT(legacy_acqs, 100u)
            << "legacy leg should exchange through the locked path";
    EXPECT_LT(lockfree_acqs * 20, legacy_acqs)
            << "lock-free leg took too many per-CPU locks ("
            << lockfree_acqs << " vs legacy " << legacy_acqs << ")";
}

TEST(Depot, ExchangeHammerOversubscribed)
{
    // TSan target: 2x-oversubscribed alloc/free/defer churn through
    // the depot, then quiesce — the accounting identities must hold
    // exactly and the depot must have actually been exercised.
    unsigned hw = std::thread::hardware_concurrency();
    unsigned n = std::min(16u, std::max(4u, hw * 2));

    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{50};
    RcuDomain domain(rcfg);
    PrudenceConfig cfg;
    cfg.arena_bytes = 128 << 20;
    cfg.cpus = 4;
    cfg.magazine_capacity = 16;
    cfg.lockfree_pcpu = true;
    cfg.maintenance_interval = std::chrono::microseconds{200};
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("hammer", 128);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t) {
        threads.emplace_back([&alloc, id, t] {
            std::vector<void*> pool;
            unsigned state = t * 2654435761u + 1;
            for (int i = 0; i < 8000; ++i) {
                state = state * 1664525u + 1013904223u;
                unsigned action = (state >> 16) % 4;
                if (action < 2 || pool.empty()) {
                    if (void* p = alloc.cache_alloc(id)) {
                        std::memset(p, static_cast<int>(t), 16);
                        pool.push_back(p);
                    }
                } else if (action == 2) {
                    alloc.cache_free(id, pool.back());
                    pool.pop_back();
                } else {
                    alloc.cache_free_deferred(id, pool.back());
                    pool.pop_back();
                }
            }
            for (void* p : pool)
                alloc.cache_free(id, p);
            alloc.drain_thread();
        });
    }
    for (auto& th : threads)
        th.join();

    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_GT(total_depot_exchanges(alloc), 0u)
            << "hammer never exchanged through the depot";
}

TEST(Depot, RipeBlockPathsNeverReuseOpenGracePeriodBlock)
{
    // Two paths turn a deferred depot block back into reusable
    // objects: the bounded scan in a missing refill
    // (depot_pop_reusable) and the sweep behind trim_depot and the
    // maintenance tick (depot_harvest_safe). While the grace period is
    // open, neither may hand out or promote a deferred object, no
    // matter how hard it is driven; once the period closes, each must.
    // The model checker independently flags any early
    // reuse as reuse_before_grace_period.
    ManualRcuDomain domain;
    perturb::ModelChecker model;
    model.set_completed_provider(
            [&domain] { return domain.completed_epoch(); });
    perturb::ModelChecker::install(&model);
    perturb::Injector& sched = perturb::Injector::instance();
    sched.reset(1);
    sched.start(/*site_mask=*/0, /*base_delay_ns=*/0);
    {
        PrudenceAllocator alloc(domain, lockfree_config(true));
        CacheId id = alloc.create_cache("ripe", 64);

        auto defer_batch = [&alloc, id](std::set<void*>& out) {
            std::vector<void*> batch;
            for (int i = 0; i < 64; ++i) {
                void* p = alloc.cache_alloc(id);
                ASSERT_NE(p, nullptr);
                batch.push_back(p);
            }
            for (void* p : batch) {
                out.insert(p);
                alloc.cache_free_deferred(id, p);
            }
            alloc.drain_thread();
        };
        // Allocate @p n objects and free them again; @return how many
        // of them came from @p deferred.
        auto churn = [&alloc, id](const std::set<void*>& deferred,
                                  int n) {
            std::vector<void*> pool;
            std::size_t hits = 0;
            for (int i = 0; i < n; ++i) {
                void* q = alloc.cache_alloc(id);
                if (q == nullptr) {
                    ADD_FAILURE() << "alloc failed";
                    break;
                }
                hits += deferred.count(q);
                pool.push_back(q);
            }
            for (void* q : pool)
                alloc.cache_free(id, q);
            return hits;
        };

        // A fresh cache misses cold: nothing full, nothing deferred.
        std::set<void*> first;
        defer_batch(first);
        CacheStatsSnapshot s0 = alloc.cache_snapshot(id);
        EXPECT_GT(s0.depot_miss_cold, 0u);
        EXPECT_EQ(s0.depot_miss_gp_pending, 0u)
                << "cold cache attributed misses to open grace periods";
        std::size_t parked = alloc.depot_deferred_objects();
        ASSERT_GT(parked, 0u);

        // Grace period open. The refill scan sees the deferred blocks
        // and must refuse them (a gp_pending miss, served from slabs).
        EXPECT_EQ(churn(first, 8 * 64), 0u)
                << "refill scan reused an open-grace-period object";
        EXPECT_GT(alloc.cache_snapshot(id).depot_miss_gp_pending, 0u)
                << "refills never scanned the deferred blocks";
        // The sweep, through both of its callers, must leave every
        // deferred block in place. Draining the magazine and then
        // trim_depot(0) also empty the full stock, so the next refill
        // has to scan the deferred stack.
        alloc.drain_thread();
        alloc.trim_depot(0);
        alloc.maintenance_pass();
        EXPECT_EQ(alloc.depot_deferred_objects(), parked)
                << "sweep promoted an open-grace-period block";
        EXPECT_EQ(alloc.depot_full_objects(), 0u);

        // Grace period closed: the refill scan now reuses the blocks.
        domain.advance();
        domain.advance();
        std::uint64_t merges = alloc.cache_snapshot(id).latent_merge_hits;
        EXPECT_GT(churn(first, 64), 0u) << "refill scan never reused";
        EXPECT_GT(alloc.cache_snapshot(id).latent_merge_hits, merges);

        // A second batch, left to the sweep alone: nothing while the
        // grace period is open, everything once it closes.
        std::set<void*> second;
        defer_batch(second);
        parked = alloc.depot_deferred_objects();
        ASSERT_GT(parked, 0u);
        alloc.maintenance_pass();
        EXPECT_EQ(alloc.depot_deferred_objects(), parked)
                << "maintenance promoted an open-grace-period block";
        domain.advance();
        domain.advance();
        alloc.maintenance_pass();
        EXPECT_EQ(alloc.depot_deferred_objects(), 0u)
                << "maintenance left ripe blocks unharvested";
        EXPECT_GT(churn(second, 2 * 64), 0u)
                << "harvested blocks never reached a refill";

        alloc.quiesce();
        EXPECT_EQ(alloc.validate(), "");
        CacheStatsSnapshot s = alloc.cache_snapshot(id);
        EXPECT_EQ(s.live_objects, 0);
        EXPECT_EQ(s.deferred_outstanding, 0);
    }
    sched.stop();
    perturb::ModelChecker::install(nullptr);
    EXPECT_TRUE(model.violations().empty())
            << "model checker flagged a ripe-block path";
}

TEST(Depot, TrimDepotReleasesRetainedFullBlocks)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, lockfree_config(true));
    CacheId id = alloc.create_cache("trim", 64);

    std::vector<void*> pool;
    for (int i = 0; i < 256; ++i)
        pool.push_back(alloc.cache_alloc(id));
    for (void* p : pool)
        alloc.cache_free(id, p);
    alloc.drain_thread();
    ASSERT_GT(alloc.depot_full_objects(), 0u)
            << "flushes never built depot full blocks";

    std::size_t released = alloc.trim_depot(0);
    EXPECT_GT(released, 0u);
    EXPECT_EQ(alloc.depot_full_objects(), 0u);
    EXPECT_EQ(alloc.validate(), "");
    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
}

TEST(Depot, OccupancyProbesReportGauges)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, lockfree_config(true));
    CacheId id = alloc.create_cache("probes", 64);

    std::vector<void*> pool;
    for (int i = 0; i < 128; ++i)
        pool.push_back(alloc.cache_alloc(id));
    for (void* p : pool)
        alloc.cache_free(id, p);
    alloc.drain_thread();
    ASSERT_GT(alloc.depot_full_objects(), 0u);

    telemetry::Monitor monitor;
    telemetry::ProbeGroup group(monitor);
    alloc.register_telemetry_probes(group, "t.");
    monitor.sample_at(1'000'000);

    bool found_full = false, found_deferred = false,
         found_blocks = false;
    for (const auto& [name, value] : monitor.latest()) {
        if (name == "t.alloc.depot_full_objects") {
            found_full = true;
            EXPECT_EQ(value, alloc.depot_full_objects());
        } else if (name == "t.alloc.depot_deferred_objects") {
            found_deferred = true;
        } else if (name == "t.alloc.depot_blocks") {
            found_blocks = true;
            EXPECT_GT(value, 0u);
        }
    }
    EXPECT_TRUE(found_full);
    EXPECT_TRUE(found_deferred);
    EXPECT_TRUE(found_blocks);
}

TEST(Depot, UnprotectedPopVariantTripsTheModelChecker)
{
    // Self-test of the safety net: arm the deliberately broken depot
    // pop (grace-period check skipped) and the reference model must
    // flag reuse_before_grace_period; disarmed, the same workload is
    // clean. prudtorture --self-test runs the full seeded-schedule
    // version of this.
    auto run = [](bool armed) {
        ManualRcuDomain domain;
        perturb::ModelChecker model;
        model.set_completed_provider(
                [&domain] { return domain.completed_epoch(); });
        perturb::ModelChecker::install(&model);
        // Model hooks and bug detours run only inside a session;
        // an empty site mask keeps the schedule itself unperturbed.
        perturb::Injector& sched = perturb::Injector::instance();
        sched.reset(1);
        sched.start(/*site_mask=*/0, /*base_delay_ns=*/0);
        perturb::set_bug(armed ? perturb::BugId::kUnprotectedDepotPop
                               : perturb::BugId::kNone);

        {
            PrudenceAllocator alloc(domain, lockfree_config(true));
            CacheId id = alloc.create_cache("bug", 64);
            std::vector<void*> pool;
            for (int i = 0; i < 64; ++i)
                pool.push_back(alloc.cache_alloc(id));
            for (void* p : pool)
                alloc.cache_free_deferred(id, p);
            alloc.drain_thread();
            // Grace period deliberately left open: a correct depot
            // refuses these blocks, the broken one hands them out.
            pool.clear();
            for (int i = 0; i < 256; ++i) {
                if (void* p = alloc.cache_alloc(id))
                    pool.push_back(p);
            }
            for (void* p : pool)
                alloc.cache_free(id, p);
            domain.advance();
            alloc.quiesce();
        }

        perturb::set_bug(perturb::BugId::kNone);
        sched.stop();
        perturb::ModelChecker::install(nullptr);
        return model.violations();
    };

    auto broken = run(true);
    ASSERT_FALSE(broken.empty())
            << "unprotected pop escaped the model checker";
    bool saw_reuse = false;
    for (const auto& v : broken)
        saw_reuse |= v.kind == "reuse_before_grace_period";
    EXPECT_TRUE(saw_reuse);

    EXPECT_TRUE(run(false).empty())
            << "clean depot flagged by the model checker";
}

}  // namespace
}  // namespace prudence
