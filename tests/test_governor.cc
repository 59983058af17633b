/**
 * @file
 * Tests for the adaptive reclamation governor (DESIGN.md §13), all
 * driven under a virtual clock: probe values are injected through a
 * test probe, Monitor::sample_at() stamps them, and
 * ReclamationGovernor::evaluate_at() runs the control loop at exact
 * timestamps — no sleeps, no background threads.
 *
 * Covered: hysteresis (one fire per excursion), for_at_least holds,
 * cooldown/re-arm, priority between conflicting schemes, held-action
 * idempotence and retry-on-refusal, relax-to-nominal, the
 * kGovernorAction fault site, the governor-vs-OOM-ladder handoff
 * (ladder still reports when schemes are disabled), and the actuator
 * substrate (manual-domain expedite consumption, latent-ring
 * admission limits, allocator reclaim_ready()).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prudence_allocator.h"
#include "governor/governor.h"
#include "perturb/perturb.h"
#include "rcu/manual_domain.h"
#include "slab/latent_ring.h"
#include "telemetry/monitor.h"

namespace prudence::governor {
namespace {

using std::chrono::milliseconds;

constexpr std::uint64_t kMs = 1'000'000;  // ns per ms

/// Records every actuation; can refuse the next N dispatches.
struct RecordingActuators : Actuators
{
    struct Pace
    {
        unsigned level;
        std::size_t batch;
    };
    std::vector<Pace> paces;
    std::vector<unsigned> admissions;
    std::vector<std::size_t> trims;
    std::vector<std::size_t> depot_trims;
    /// Poll-safe progress signal for threaded tests: the vectors
    /// above may only be read after gov->stop() joins the loop.
    std::atomic<std::size_t> pace_count{0};
    int reclaims = 0;
    int refuse_remaining = 0;

    bool
    refuse()
    {
        if (refuse_remaining > 0) {
            --refuse_remaining;
            return true;
        }
        return false;
    }

    bool
    pace_gp(unsigned level, std::size_t batch) override
    {
        if (refuse())
            return false;
        paces.push_back({level, batch});
        pace_count.fetch_add(1, std::memory_order_release);
        return true;
    }
    bool
    shrink_latent(unsigned pct) override
    {
        if (refuse())
            return false;
        admissions.push_back(pct);
        return true;
    }
    bool
    trim_pcp(std::size_t keep) override
    {
        if (refuse())
            return false;
        trims.push_back(keep);
        return true;
    }
    bool
    trim_depot(std::size_t keep_blocks) override
    {
        if (refuse())
            return false;
        depot_trims.push_back(keep_blocks);
        return true;
    }
    bool
    reclaim() override
    {
        if (refuse())
            return false;
        ++reclaims;
        return true;
    }
};

/// Monitor + injectable probe + governor under a virtual clock.
struct Harness
{
    telemetry::Monitor monitor;
    std::atomic<std::uint64_t> value{0};
    RecordingActuators acts;
    std::unique_ptr<ReclamationGovernor> gov;

    explicit Harness(std::vector<Scheme> schemes,
                     milliseconds ladder_hold = milliseconds{100})
    {
        monitor.add_probe("gov.signal", "units",
                          [this] { return value.load(); });
        GovernorConfig cfg;
        cfg.ladder_hold = ladder_hold;
        cfg.schemes = std::move(schemes);
        gov = std::make_unique<ReclamationGovernor>(monitor, acts,
                                                    std::move(cfg));
    }

    /// Set the probe, sample it and evaluate, all at @p t_ns.
    void
    step(std::uint64_t v, std::uint64_t t_ns)
    {
        value.store(v);
        monitor.sample_at(t_ns);
        gov->evaluate_at(t_ns);
    }

    std::uint64_t
    fires(std::size_t scheme = 0) const
    {
        return gov->schemes().at(scheme).fires;
    }
};

Scheme
above_signal(std::uint64_t threshold, std::uint64_t rearm = 0)
{
    Scheme s;
    s.name = "test_scheme";
    s.probe = "gov.signal";
    s.cmp = Scheme::Cmp::kAbove;
    s.threshold = threshold;
    s.rearm = rearm;
    s.action = ActionId::kExpediteGp;
    s.arg = 2;
    s.level = PressureLevel::kElevated;
    return s;
}

// ---------------------------------------------------------------------
// Scheme state machine: hysteresis, hold, cooldown.
// ---------------------------------------------------------------------

TEST(GovernorScheme, FiresOncePerExcursionWithHysteresis)
{
    // threshold 100, rearm 50: the scheme must stay active (without
    // re-firing) anywhere in the dead band (50, 100], and deactivate
    // only at or below 50.
    Harness h({above_signal(100, 50)});
    h.step(120, 1 * kMs);
    EXPECT_EQ(h.fires(), 1u);
    EXPECT_EQ(h.gov->level(), PressureLevel::kElevated);

    h.step(80, 2 * kMs);  // inside the dead band: still active
    EXPECT_EQ(h.fires(), 1u);
    EXPECT_EQ(h.gov->level(), PressureLevel::kElevated);

    h.step(120, 3 * kMs);  // re-breach while active: no re-fire
    EXPECT_EQ(h.fires(), 1u);

    h.step(40, 4 * kMs);  // below rearm: excursion over
    EXPECT_EQ(h.gov->level(), PressureLevel::kNominal);

    h.step(120, 5 * kMs);  // next excursion fires again
    EXPECT_EQ(h.fires(), 2u);
}

TEST(GovernorScheme, ForAtLeastDelaysTheFire)
{
    Scheme s = above_signal(100);
    s.for_at_least = milliseconds{10};
    Harness h({s});

    h.step(120, 0);
    EXPECT_EQ(h.fires(), 0u) << "fired before the hold elapsed";
    h.step(120, 5 * kMs);
    EXPECT_EQ(h.fires(), 0u);
    h.step(120, 10 * kMs);
    EXPECT_EQ(h.fires(), 1u) << "hold met, must fire";
}

TEST(GovernorScheme, BreachDipResetsTheHold)
{
    Scheme s = above_signal(100);
    s.for_at_least = milliseconds{10};
    Harness h({s});

    h.step(120, 0);
    h.step(50, 5 * kMs);  // dip: pending resets
    h.step(120, 10 * kMs);
    EXPECT_EQ(h.fires(), 0u) << "hold must restart after a dip";
    h.step(120, 20 * kMs);
    EXPECT_EQ(h.fires(), 1u);
}

TEST(GovernorScheme, CooldownBlocksImmediateRefire)
{
    Scheme s = above_signal(100, 50);
    s.cooldown = milliseconds{100};
    Harness h({s});

    h.step(120, 0);  // fire #1
    EXPECT_EQ(h.fires(), 1u);
    h.step(40, 10 * kMs);   // deactivate
    h.step(120, 50 * kMs);  // breach inside the cooldown
    EXPECT_EQ(h.fires(), 1u) << "re-fired inside the cooldown";
    h.step(120, 150 * kMs);  // cooldown elapsed, still breaching
    EXPECT_EQ(h.fires(), 2u);
}

// ---------------------------------------------------------------------
// Priority and actuation.
// ---------------------------------------------------------------------

TEST(GovernorScheme, HigherPriorityWinsConflictingActuator)
{
    Scheme weak = above_signal(100, 50);
    weak.name = "weak";
    weak.priority = 1;
    weak.arg = 1;
    Scheme strong = above_signal(200, 150);
    strong.name = "strong";
    strong.priority = 5;
    strong.arg = 3;
    Harness h({weak, strong});

    h.step(120, 0);  // only weak breaches
    ASSERT_EQ(h.acts.paces.size(), 1u);
    EXPECT_EQ(h.acts.paces.back().level, 1u);

    h.step(250, 1 * kMs);  // both active: strong wins
    ASSERT_EQ(h.acts.paces.size(), 2u);
    EXPECT_EQ(h.acts.paces.back().level, 3u);

    h.step(120, 2 * kMs);  // strong rearms (<=150): weak holds again
    ASSERT_EQ(h.acts.paces.size(), 3u);
    EXPECT_EQ(h.acts.paces.back().level, 1u);
}

TEST(GovernorActuation, HeldStateDispatchesOnlyOnChange)
{
    Harness h({above_signal(100, 50)});
    for (int i = 0; i < 5; ++i)
        h.step(120, static_cast<std::uint64_t>(i) * kMs);
    EXPECT_EQ(h.acts.paces.size(), 1u)
        << "unchanged held state must not re-dispatch";
    EXPECT_EQ(h.acts.paces[0].level, 2u);

    // Deactivation relaxes to nominal exactly once.
    for (int i = 5; i < 10; ++i)
        h.step(10, static_cast<std::uint64_t>(i) * kMs);
    ASSERT_EQ(h.acts.paces.size(), 2u);
    EXPECT_EQ(h.acts.paces.back().level, 0u);
    EXPECT_EQ(h.acts.paces.back().batch, 0u);
}

TEST(GovernorActuation, RefusedDispatchIsRetriedNextRound)
{
    Harness h({above_signal(100, 50)});
    h.acts.refuse_remaining = 1;
    h.step(120, 0);  // refused: applied state must not advance
    EXPECT_TRUE(h.acts.paces.empty());
    EXPECT_EQ(h.gov->stats().refusals, 1u);
    EXPECT_EQ(h.gov->schemes().at(0).refusals, 1u);

    h.step(120, 1 * kMs);  // same desired state: retried, applied
    ASSERT_EQ(h.acts.paces.size(), 1u);
    EXPECT_EQ(h.acts.paces[0].level, 2u);
    EXPECT_EQ(h.gov->schemes().at(0).effects, 1u);
}

TEST(GovernorActuation, EdgeActionsFireOncePerExcursion)
{
    Scheme trim = above_signal(100, 50);
    trim.name = "trim";
    trim.action = ActionId::kTrimPcp;
    trim.arg = 1;
    Scheme reclaim = above_signal(100, 50);
    reclaim.name = "reclaim";
    reclaim.action = ActionId::kReclaim;
    Harness h({trim, reclaim});

    for (int i = 0; i < 4; ++i)
        h.step(120, static_cast<std::uint64_t>(i) * kMs);
    EXPECT_EQ(h.acts.trims.size(), 1u);
    EXPECT_EQ(h.acts.reclaims, 1);

    h.step(10, 10 * kMs);   // excursion ends
    h.step(120, 20 * kMs);  // next excursion: edges fire again
    EXPECT_EQ(h.acts.trims.size(), 2u);
    EXPECT_EQ(h.acts.reclaims, 2);
}

TEST(GovernorActuation, TrimDepotFiresOncePerExcursionWithArg)
{
    Scheme s = above_signal(100, 50);
    s.name = "trim_depot";
    s.action = ActionId::kTrimDepot;
    s.arg = 4;
    Harness h({s});

    for (int i = 0; i < 3; ++i)
        h.step(120, static_cast<std::uint64_t>(i) * kMs);
    ASSERT_EQ(h.acts.depot_trims.size(), 1u) << "edge action re-fired";
    EXPECT_EQ(h.acts.depot_trims.front(), 4u);

    h.step(10, 10 * kMs);   // excursion ends
    h.step(120, 20 * kMs);  // next excursion fires again
    EXPECT_EQ(h.acts.depot_trims.size(), 2u);
}

TEST(GovernorActuation, ShrinkLatentHoldsAdmissionWhileActive)
{
    Scheme s = above_signal(100, 50);
    s.action = ActionId::kShrinkLatent;
    s.arg = 40;
    Harness h({s});

    h.step(120, 0);
    ASSERT_EQ(h.acts.admissions.size(), 1u);
    EXPECT_EQ(h.acts.admissions[0], 40u);
    h.step(120, 1 * kMs);
    EXPECT_EQ(h.acts.admissions.size(), 1u) << "idempotent while held";
    h.step(10, 2 * kMs);  // relax back to nominal
    ASSERT_EQ(h.acts.admissions.size(), 2u);
    EXPECT_EQ(h.acts.admissions.back(), 100u);
}

TEST(GovernorActuation, FaultSiteRefusesAndRecoveryReapplies)
{
    auto& injector = perturb::Injector::instance();
    injector.reset(0x60Fu);
    perturb::Policy policy;
    policy.probability = 1.0;
    injector.arm(perturb::SiteId::kGovernorAction, policy);

    Harness h({above_signal(100, 50)});
    h.step(120, 0);
    EXPECT_TRUE(h.acts.paces.empty())
        << "armed fault site must refuse the dispatch";
    EXPECT_GE(h.gov->stats().refusals, 1u);

    injector.disarm(perturb::SiteId::kGovernorAction);
    h.step(120, 1 * kMs);  // stuck actuation retried once unstuck
    ASSERT_EQ(h.acts.paces.size(), 1u);
    EXPECT_EQ(h.acts.paces[0].level, 2u);
    injector.reset(0);
}

// ---------------------------------------------------------------------
// The OOM-ladder handoff (one escalation story).
// ---------------------------------------------------------------------

TEST(GovernorLadder, NoteEntersAndHoldsTerminalLevel)
{
    Harness h({above_signal(100, 50)}, milliseconds{100});
    h.gov->note_oom_ladder(2);
    h.step(10, 0);  // probe nominal; the ladder note still escalates
    EXPECT_EQ(h.gov->level(), PressureLevel::kOomLadder);
    EXPECT_EQ(h.gov->max_ladder_rung(), 2);
    // Terminal actuation: max expedite + floor admission + reclaim.
    ASSERT_FALSE(h.acts.paces.empty());
    EXPECT_EQ(h.acts.paces.back().level,
              GracePeriodDomain::kMaxExpediteLevel);
    ASSERT_FALSE(h.acts.admissions.empty());
    EXPECT_EQ(h.acts.admissions.back(), 0u);
    EXPECT_GE(h.acts.reclaims, 1);

    h.step(10, 50 * kMs);  // inside the hold
    EXPECT_EQ(h.gov->level(), PressureLevel::kOomLadder);

    h.step(10, 150 * kMs);  // hold expired: relax to nominal
    EXPECT_EQ(h.gov->level(), PressureLevel::kNominal);
    EXPECT_EQ(h.acts.paces.back().level, 0u);
    EXPECT_EQ(h.acts.admissions.back(), 100u);
}

TEST(GovernorLadder, HandoffWorksWithSchemesDisabled)
{
    // The handoff contract: with every scheme disabled the governor
    // does nothing on its own, but the allocator's ladder still fires
    // and its note still escalates the governor to the terminal
    // level. The ladder never depends on the governor.
    Harness h({above_signal(100, 50)}, milliseconds{100});
    h.gov->set_schemes_enabled(false);

    h.step(500, 0);  // way past threshold: disabled schemes stay off
    EXPECT_EQ(h.fires(), 0u);
    EXPECT_EQ(h.gov->level(), PressureLevel::kNominal);
    EXPECT_TRUE(h.acts.paces.empty());

    h.gov->note_oom_ladder(1);
    h.step(500, 1 * kMs);
    EXPECT_EQ(h.gov->level(), PressureLevel::kOomLadder);
    h.step(500, 200 * kMs);
    EXPECT_EQ(h.gov->level(), PressureLevel::kNominal);
}

TEST(GovernorLadder, AllocatorPressureListenerReachesGovernor)
{
    // End-to-end: a real Prudence OOM walks the ladder, the pressure
    // listener forwards the rung, and the next evaluation holds the
    // terminal level.
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = 1 << 20;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);

    Harness h({}, milliseconds{100});
    alloc.set_pressure_listener(
        [&h](int rung) { h.gov->note_oom_ladder(rung); });

    CacheId id = alloc.create_cache("gov_oom", 4096);
    std::vector<void*> objs;
    for (;;) {
        void* p = alloc.cache_alloc(id);
        if (p == nullptr)
            break;
        objs.push_back(p);
    }
    EXPECT_GE(h.gov->max_ladder_rung(), 1)
        << "exhaustion must walk the ladder through the listener";
    h.step(0, 0);
    EXPECT_EQ(h.gov->level(), PressureLevel::kOomLadder);
    for (void* p : objs)
        alloc.cache_free(id, p);
}

// ---------------------------------------------------------------------
// Scheme plumbing details.
// ---------------------------------------------------------------------

TEST(GovernorScheme, UnknownProbeNeverFires)
{
    Scheme s = above_signal(100);
    s.probe = "no.such.probe";
    Harness h({s});
    h.step(500, 0);
    EXPECT_EQ(h.fires(), 0u);
    EXPECT_EQ(h.gov->level(), PressureLevel::kNominal);
}

TEST(GovernorScheme, DisabledSchemeNeverFires)
{
    Scheme s = above_signal(100);
    s.enabled = false;
    Harness h({s});
    h.step(500, 0);
    EXPECT_EQ(h.fires(), 0u);
}

TEST(GovernorScheme, BelowComparatorAndLevelEscalation)
{
    Scheme s = above_signal(0);
    s.cmp = Scheme::Cmp::kBelow;
    s.threshold = 100;
    s.rearm = 200;  // deactivate only once the value recovers to 200
    s.level = PressureLevel::kCritical;
    s.action = ActionId::kShrinkLatent;
    s.arg = 50;
    Harness h({s});

    h.step(50, 0);
    EXPECT_EQ(h.fires(), 1u);
    EXPECT_EQ(h.gov->level(), PressureLevel::kCritical);
    h.step(150, 1 * kMs);  // between threshold and rearm: active
    EXPECT_EQ(h.gov->level(), PressureLevel::kCritical);
    h.step(250, 2 * kMs);  // recovered
    EXPECT_EQ(h.gov->level(), PressureLevel::kNominal);
}

TEST(GovernorConfigTest, DefaultSchemesCoverTheStockRules)
{
    DefaultSchemeTuning tuning;
    tuning.prefix = "p.";
    auto schemes = default_schemes(tuning);
    ASSERT_EQ(schemes.size(), 5u);
    EXPECT_EQ(schemes[0].probe, "p.alloc.latent_bytes");
    EXPECT_EQ(schemes[0].action, ActionId::kExpediteGp);
    EXPECT_EQ(schemes[1].probe, "p.age.deferred_p99_ns");
    EXPECT_EQ(schemes[1].action, ActionId::kWidenCbBatch);
    EXPECT_EQ(schemes[2].probe, "p.buddy.low_order_headroom_pages");
    EXPECT_EQ(schemes[2].action, ActionId::kShrinkLatent);
    EXPECT_EQ(schemes[3].action, ActionId::kTrimPcp);
    EXPECT_EQ(schemes[4].probe, "p.alloc.depot_full_objects");
    EXPECT_EQ(schemes[4].action, ActionId::kTrimDepot);
    for (const Scheme& s : schemes) {
        EXPECT_TRUE(s.enabled);
        EXPECT_GT(s.rearm, 0u);
    }
}

TEST(GovernorThread, StartStopRelaxesActuation)
{
    Harness h({above_signal(100, 50)});
    h.value.store(120);
    h.monitor.sample_at(0);
    h.gov->start();
    // The background loop evaluates at least once promptly. Poll the
    // atomic counter; the vectors are safe to read only after stop()
    // joins the loop thread.
    for (int i = 0; i < 200 && h.acts.pace_count.load() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    h.gov->stop();
    ASSERT_FALSE(h.acts.paces.empty());
    EXPECT_EQ(h.acts.paces.front().level, 2u);
    // stop() must leave the system nominal.
    EXPECT_EQ(h.acts.paces.back().level, 0u);
}

// ---------------------------------------------------------------------
// Actuator substrate.
// ---------------------------------------------------------------------

TEST(GovernorSubstrate, ManualDomainConsumesExpediteAsAdvance)
{
    ManualRcuDomain domain;
    const auto before = domain.completed_epoch();
    domain.set_pacing(/*expedite_level=*/2, /*batch_limit=*/0);
    EXPECT_GT(domain.completed_epoch(), before)
        << "an expedite request IS the grace period for manual epochs";
    EXPECT_EQ(domain.expedite_level(), 2u);
    domain.set_pacing(0, 0);
    EXPECT_EQ(domain.expedite_level(), 0u);
}

TEST(GovernorSubstrate, PacingLevelIsClamped)
{
    ManualRcuDomain domain;
    domain.set_pacing(99, 7);
    EXPECT_EQ(domain.expedite_level(),
              GracePeriodDomain::kMaxExpediteLevel);
    EXPECT_EQ(domain.paced_batch_limit(), 7u);
}

TEST(GovernorSubstrate, LatentRingAdmissionLimit)
{
    LatentRing ring(8);
    EXPECT_EQ(ring.limit(), 8u);
    ring.set_limit(20);
    EXPECT_EQ(ring.limit(), 8u) << "limit clamps to capacity";
    ring.set_limit(0);
    EXPECT_EQ(ring.limit(), 1u) << "limit clamps to 1";

    ring.set_limit(2);
    EXPECT_FALSE(ring.at_limit());
    ring.push(reinterpret_cast<void*>(0x10), 1);
    EXPECT_FALSE(ring.at_limit());
    ring.push(reinterpret_cast<void*>(0x20), 1);
    EXPECT_TRUE(ring.at_limit()) << "admission boundary reached";
    EXPECT_FALSE(ring.full()) << "storage is not exhausted";
}

TEST(GovernorSubstrate, PrudenceAdmissionAndReclaimReady)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = 16 << 20;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("gov_adm", 256);

    alloc.set_deferred_admission(50);
    EXPECT_EQ(alloc.deferred_admission(), 50u);
    alloc.set_deferred_admission(0);
    EXPECT_EQ(alloc.deferred_admission(),
              cfg.latent_admission_floor_pct)
        << "admission clamps to the configured floor";

    // Defer, advance the epoch, then reclaim_ready() must merge the
    // now-safe objects without blocking on a new grace period.
    std::vector<void*> objs;
    for (int i = 0; i < 32; ++i)
        objs.push_back(alloc.cache_alloc(id));
    for (void* p : objs)
        alloc.cache_free_deferred(id, p);
    domain.advance();
    EXPECT_GT(alloc.reclaim_ready(), 0u);
    EXPECT_EQ(alloc.cache_snapshot(id).deferred_outstanding, 0u);

    // quiesce() resets admission to nominal.
    alloc.quiesce();
    EXPECT_EQ(alloc.deferred_admission(), 100u);
}

TEST(GovernorSubstrate, AllocatorActuatorsDriveTheRealSurfaces)
{
    ManualRcuDomain domain;
    PrudenceConfig cfg;
    cfg.arena_bytes = 16 << 20;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    PrudenceAllocator alloc(domain, cfg);

    AllocatorActuators acts(domain, alloc);
    EXPECT_TRUE(acts.pace_gp(1, 64));
    EXPECT_EQ(domain.expedite_level(), 1u);
    EXPECT_EQ(domain.paced_batch_limit(), 64u);
    EXPECT_TRUE(acts.shrink_latent(50));
    EXPECT_EQ(alloc.deferred_admission(), 50u);
    EXPECT_TRUE(acts.trim_pcp(0));
    EXPECT_TRUE(acts.trim_depot(0));
    EXPECT_TRUE(acts.reclaim());
}

}  // namespace
}  // namespace prudence::governor
