/**
 * @file
 * Tests for the fault policies of the perturbation layer (src/perturb/):
 * policy semantics, seed determinism and the offline-replay contract;
 * plus the allocator behaviors the sites exist to exercise — graceful
 * OOM degradation, throttled callback processing and the grace-period
 * wait-and-retry escalation.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/prudence_allocator.h"
#include "page/arena.h"
#include "page/buddy_allocator.h"
#include "perturb/perturb.h"
#include "rcu/callback_engine.h"
#include "rcu/grace_period.h"
#include "rcu/manual_domain.h"

namespace prudence {
namespace {

using perturb::Injector;
using perturb::Policy;
using perturb::SiteId;

// ---------------------------------------------------------------------
// Injector semantics (isolated instances, not the wired sites).
// ---------------------------------------------------------------------

TEST(FaultInjector, UnarmedNeverFires)
{
    Injector fi;
    fi.reset(1);
    EXPECT_FALSE(fi.any_armed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fi.arrive(SiteId::kBuddyAlloc));
    EXPECT_EQ(fi.report(SiteId::kBuddyAlloc).fires, 0u);
}

static_assert(std::is_trivially_destructible_v<Injector>,
              "the process-wide injector needs no exit-time teardown");

TEST(FaultInjector, LocalArmLeavesProcessGateIdle)
{
    Injector fi;
    fi.reset(1);
    Policy always;
    always.every_nth = 1;
    fi.arm(SiteId::kBuddyAlloc, always);
    EXPECT_TRUE(fi.any_armed());
    EXPECT_FALSE(Injector::instance().any_armed());
    EXPECT_FALSE(PRUDENCE_FAULT_POINT(kBuddyAlloc));
    EXPECT_TRUE(fi.arrive(SiteId::kBuddyAlloc));
}

TEST(FaultInjector, EveryNthFiresExactlyEveryNth)
{
    Injector fi;
    fi.reset(7);
    Policy p;
    p.every_nth = 5;
    fi.arm(SiteId::kRefillFail, p);
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
        bool f = fi.arrive(SiteId::kRefillFail);
        EXPECT_EQ(f, (i + 1) % 5 == 0) << "evaluation " << i;
        fired += f;
    }
    EXPECT_EQ(fired, 20);
}

TEST(FaultInjector, OneShotFiresExactlyOnce)
{
    Injector fi;
    fi.reset(9);
    Policy p;
    p.one_shot = true;
    fi.arm(SiteId::kGpDelay, p);
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
        fired += fi.arrive(SiteId::kGpDelay);
    EXPECT_EQ(fired, 1);
}

TEST(FaultInjector, ProbabilityRoughlyMatchesRate)
{
    Injector fi;
    fi.reset(11);
    Policy p;
    p.probability = 0.1;
    fi.arm(SiteId::kBuddyAlloc, p);
    int fired = 0;
    for (int i = 0; i < 10000; ++i)
        fired += fi.arrive(SiteId::kBuddyAlloc);
    EXPECT_GT(fired, 700);
    EXPECT_LT(fired, 1300);
}

TEST(FaultInjector, SameSeedSameDecisions)
{
    Policy p;
    p.probability = 0.3;
    std::vector<bool> a, b;
    for (int run = 0; run < 2; ++run) {
        Injector fi;
        fi.reset(42);
        fi.arm(SiteId::kSlowPath, p);
        auto& out = run == 0 ? a : b;
        for (int i = 0; i < 5000; ++i)
            out.push_back(fi.arrive(SiteId::kSlowPath));
    }
    EXPECT_EQ(a, b);
}

TEST(FaultInjector, DifferentSeedsDiffer)
{
    Policy p;
    p.probability = 0.5;
    std::vector<bool> a, b;
    for (int run = 0; run < 2; ++run) {
        Injector fi;
        fi.reset(run == 0 ? 1 : 2);
        fi.arm(SiteId::kSlowPath, p);
        auto& out = run == 0 ? a : b;
        for (int i = 0; i < 1000; ++i)
            out.push_back(fi.arrive(SiteId::kSlowPath));
    }
    EXPECT_NE(a, b);
}

TEST(FaultInjector, LiveCountersMatchOfflineReplay)
{
    Injector fi;
    fi.reset(1234);
    Policy p;
    p.probability = 0.2;
    fi.arm(SiteId::kLatentStarve, p);
    for (int i = 0; i < 3000; ++i)
        fi.arrive(SiteId::kLatentStarve);

    auto r = fi.report(SiteId::kLatentStarve);
    EXPECT_EQ(r.evaluations, 3000u);
    EXPECT_EQ(r.fires,
              Injector::expected_fires(1234, SiteId::kLatentStarve,
                                               p, r.evaluations));
    EXPECT_EQ(r.fingerprint,
              Injector::expected_fingerprint(
                  1234, SiteId::kLatentStarve, p, r.evaluations));
}

TEST(FaultInjector, ResetDisarmsAndZeroes)
{
    Injector fi;
    fi.reset(5);
    Policy p;
    p.every_nth = 1;
    fi.arm(SiteId::kBuddyAlloc, p);
    EXPECT_TRUE(fi.arrive(SiteId::kBuddyAlloc));
    fi.reset(5);
    EXPECT_FALSE(fi.any_armed());
    EXPECT_FALSE(fi.arrive(SiteId::kBuddyAlloc));
    EXPECT_EQ(fi.report(SiteId::kBuddyAlloc).evaluations, 0u);
}

TEST(FaultInjector, DelayPayloadIsExposed)
{
    Injector fi;
    fi.reset(5);
    Policy p;
    p.every_nth = 1;
    p.delay_ns = 12345;
    fi.arm(SiteId::kGpDelay, p);
    EXPECT_EQ(fi.report(SiteId::kGpDelay).policy.delay_ns, 12345u);
    EXPECT_EQ(Injector::decide(5, SiteId::kGpDelay, p, 0).delay_ns,
              12345u);
    fi.disarm(SiteId::kGpDelay);
    EXPECT_FALSE(fi.report(SiteId::kGpDelay).armed);
}

// ---------------------------------------------------------------------
// Wired-site behavior (the process-wide injector).
// ---------------------------------------------------------------------

/// RAII reset of the process-wide injector around a test body.
struct GlobalFaultGuard
{
    GlobalFaultGuard(std::uint64_t seed)
    {
        Injector::instance().reset(seed);
    }
    ~GlobalFaultGuard() { Injector::instance().reset(0); }
};

TEST(FaultWiring, InjectedArenaFailureDegradesBuddy)
{
    GlobalFaultGuard guard(3);
    Policy p;
    p.one_shot = true;
    Injector::instance().arm(SiteId::kArenaMap, p);

    BuddyAllocator degraded(1 << 20);
    EXPECT_FALSE(degraded.valid());
    EXPECT_EQ(degraded.capacity_pages(), 0u);
    EXPECT_EQ(degraded.alloc_pages(0), nullptr);

    // The one-shot fired; the next construction succeeds.
    BuddyAllocator healthy(1 << 20);
    EXPECT_TRUE(healthy.valid());
    void* page = healthy.alloc_pages(0);
    ASSERT_NE(page, nullptr);
    healthy.free_pages(page, 0);
}

TEST(FaultWiring, InjectedBuddyOomPropagatesAsNull)
{
    GlobalFaultGuard guard(4);
    Policy p;
    p.every_nth = 1;  // every page allocation fails
    Injector::instance().arm(SiteId::kBuddyAlloc, p);

    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = 1 << 22;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);
    EXPECT_EQ(alloc.kmalloc(128), nullptr);
    EXPECT_TRUE(alloc.validate().empty());

    auto buddy = alloc.page_allocator().stats();
    EXPECT_GT(buddy.failed_allocs, 0u);
}

TEST(FaultWiring, InjectedRefillFailureRecoversWhenDisarmed)
{
    GlobalFaultGuard guard(6);
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = 1 << 22;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);

    Policy p;
    p.every_nth = 1;
    Injector::instance().arm(SiteId::kRefillFail, p);
    EXPECT_EQ(alloc.kmalloc(128), nullptr);

    Injector::instance().disarm(SiteId::kRefillFail);
    void* obj = alloc.kmalloc(128);
    ASSERT_NE(obj, nullptr);
    alloc.kfree(obj);
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(FaultWiring, OneShotDrainerStallHoldsBackProcessing)
{
    // One evaluation per drainer tick: the arrival that fails the tick
    // also sleeps the stall, so a one-shot stall really holds back
    // callback processing for its delay.
    GlobalFaultGuard guard(8);
    constexpr auto kStall = std::chrono::milliseconds(200);
    Policy p;
    p.one_shot = true;
    p.delay_ns = std::chrono::nanoseconds(kStall).count();
    Injector::instance().arm(SiteId::kDrainerStall, p);

    ManualRcuDomain domain;
    CallbackEngineConfig cfg;
    cfg.cpus = 1;
    cfg.tick = std::chrono::microseconds(500);
    std::atomic<int> fired{0};
    const auto start = std::chrono::steady_clock::now();
    {
        CallbackEngine engine(domain, cfg);
        engine.call(
            [](void* ctx, void*) {
                static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
            },
            &fired, nullptr);
        domain.advance();
        while (fired.load() == 0 &&
               std::chrono::steady_clock::now() - start <
                   std::chrono::seconds(5))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(fired.load(), 1);
    EXPECT_GE(elapsed, kStall) << "the drainer stall never slept";
    EXPECT_EQ(Injector::instance().report(SiteId::kDrainerStall).fires,
              1u);
}

// ---------------------------------------------------------------------
// OOM escalation (Algorithm 1 lines 31-32 + the expedite/backoff
// hardening). Driven without fault injection: a tiny arena reaches
// genuine exhaustion.
// ---------------------------------------------------------------------

/// A domain whose grace periods never complete: deferred objects stay
/// unsafe forever (a stuck reader, at allocator scale).
class StuckDomain : public GracePeriodDomain
{
  public:
    GpEpoch defer_epoch() override { return 100; }
    GpEpoch completed_epoch() const override { return 0; }
    void synchronize() override {}  // never makes progress
};

constexpr std::size_t kTinyArena = 1 << 20;  // 256 pages

std::vector<void*>
exhaust(Allocator& alloc, std::size_t size)
{
    std::vector<void*> held;
    while (void* p = alloc.kmalloc(size))
        held.push_back(p);
    return held;
}

TEST(OomEscalation, GpWaitAndRetryRecovers)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = kTinyArena;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    cfg.oom_backoff_initial = std::chrono::microseconds{1};
    PrudenceAllocator alloc(domain, cfg);

    auto held = exhaust(alloc, 256);
    ASSERT_GT(held.size(), 16u);

    // Defer a handful; their grace period has NOT completed, so only
    // the synchronize-and-retry rung can recover them.
    for (int i = 0; i < 8; ++i) {
        alloc.kfree_deferred(held.back());
        held.pop_back();
    }

    void* obj = alloc.kmalloc(256);
    ASSERT_NE(obj, nullptr);
    auto snaps = alloc.snapshots();
    std::uint64_t waits = 0;
    for (const auto& s : snaps)
        waits += s.oom_waits;
    EXPECT_GE(waits, 1u);

    alloc.kfree(obj);
    for (void* p : held)
        alloc.kfree(p);
    alloc.quiesce();
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(OomEscalation, ExpediteHarvestsAlreadySafeDeferrals)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = kTinyArena;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    cfg.merge_on_alloc = false;  // keep the fast path from harvesting
    // Locked leg: with the depot on, the magazine refill harvests the
    // safe deferred block before the OOM ladder is ever entered —
    // this test specifically exercises the expedite rung.
    cfg.lockfree_pcpu = false;
    PrudenceAllocator alloc(domain, cfg);

    auto held = exhaust(alloc, 256);
    ASSERT_GT(held.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        alloc.kfree_deferred(held.back());
        held.pop_back();
    }
    // Spill the thread-local deferral buffer, then complete the grace
    // period: the deferred objects' batch tag predates the advance,
    // so they are safe and the expedite rung alone must recover —
    // no synchronize() needed.
    alloc.drain_thread();
    domain.advance();

    void* obj = alloc.kmalloc(256);
    ASSERT_NE(obj, nullptr);
    std::uint64_t expedites = 0, waits = 0;
    for (const auto& s : alloc.snapshots()) {
        expedites += s.oom_expedites;
        waits += s.oom_waits;
    }
    EXPECT_GE(expedites, 1u);
    EXPECT_EQ(waits, 0u);

    alloc.kfree(obj);
    for (void* p : held)
        alloc.kfree(p);
    alloc.quiesce();
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(OomEscalation, FailsCleanlyWithNothingDeferred)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = kTinyArena;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);

    auto held = exhaust(alloc, 256);
    ASSERT_GT(held.size(), 16u);
    EXPECT_EQ(alloc.kmalloc(256), nullptr);
    std::uint64_t failures = 0;
    for (const auto& s : alloc.snapshots())
        failures += s.oom_failures;
    EXPECT_GE(failures, 1u);

    for (void* p : held)
        alloc.kfree(p);
    alloc.quiesce();
    EXPECT_TRUE(alloc.validate().empty());
}

TEST(OomEscalation, FailsCleanlyWhenDeferralsNeverBecomeSafe)
{
    StuckDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = kTinyArena;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    cfg.oom_retries = 2;
    cfg.oom_backoff_initial = std::chrono::microseconds{1};
    cfg.oom_backoff_max = std::chrono::microseconds{4};
    PrudenceAllocator alloc(domain, cfg);

    auto held = exhaust(alloc, 256);
    ASSERT_GT(held.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        alloc.kfree_deferred(held.back());
        held.pop_back();
    }

    // Deferrals exist but can never become safe: the ladder must run
    // its bounded retries and fail cleanly, not hang or crash.
    EXPECT_EQ(alloc.kmalloc(256), nullptr);
    std::uint64_t waits = 0, failures = 0;
    for (const auto& s : alloc.snapshots()) {
        waits += s.oom_waits;
        failures += s.oom_failures;
    }
    EXPECT_GE(waits, 1u);
    EXPECT_GE(failures, 1u);

    for (void* p : held)
        alloc.kfree(p);
}

// Arena two-phase init (no fault injection required).
TEST(Arena, CreateRejectsBadArguments)
{
    EXPECT_FALSE(Arena::create(0, 4096).has_value());
    EXPECT_FALSE(Arena::create(1 << 20, 3000).has_value());  // not pow2
    auto arena = Arena::create(1 << 20, 4096);
    ASSERT_TRUE(arena.has_value());
    EXPECT_TRUE(arena->valid());
    EXPECT_EQ(arena->capacity(), std::size_t{1} << 20);
    EXPECT_NE(arena->base(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena->base()) % 4096,
              0u);
}

TEST(Arena, MoveTransfersOwnership)
{
    auto a = Arena::create(1 << 16, 4096);
    ASSERT_TRUE(a.has_value());
    std::byte* base = a->base();
    Arena b = std::move(*a);
    EXPECT_FALSE(a->valid());
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.base(), base);
    EXPECT_TRUE(b.contains(base));
    EXPECT_FALSE(b.contains(base + (1 << 16)));
}

}  // namespace
}  // namespace prudence
