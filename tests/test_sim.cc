/**
 * @file
 * Unit tests for the schedule policy of the perturbation layer
 * (src/perturb/): the site registry, the seed-pure decision function
 * and its pinned replays, the live injector's agreement with its own
 * offline replay, site-mask shrinking, PCT priority drawing, and the
 * sequential reference model's invariant checks.
 *
 * Everything here runs single-threaded against isolated Injector /
 * ModelChecker instances — the cross-thread behaviour is exercised by
 * `prudtorture --self-test` and scripts/check_torture.sh.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

#include "perturb/perturb.h"
#include "perturb/ref_model.h"

namespace {

using prudence::perturb::Action;
using prudence::perturb::BugId;
using prudence::perturb::Decision;
using prudence::perturb::Injector;
using prudence::perturb::ModelChecker;
using prudence::perturb::SiteId;
namespace perturb = prudence::perturb;

/// The schedule policy with a unit base delay, so a delay decision's
/// payload is its 1x..4x multiplier.
constexpr prudence::perturb::Policy kSchedule =
    prudence::perturb::schedule_policy(1);

std::vector<SiteId>
all_sites()
{
    std::vector<SiteId> out;
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(SiteId::kMaxSite); ++i)
        out.push_back(static_cast<SiteId>(i));
    return out;
}

TEST(SimNames, YieldNamesRoundTripAndAreUnique)
{
    std::set<std::string> seen;
    for (SiteId id : all_sites()) {
        const char* name = prudence::perturb::site_name(id);
        ASSERT_STRNE(name, "unknown");
        ASSERT_STRNE(name, "none");
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate site name: " << name;
        EXPECT_EQ(prudence::perturb::site_from_name(name), id);
    }
    EXPECT_EQ(prudence::perturb::site_from_name("no_such_site"),
              SiteId::kNone);
}

TEST(SimNames, SiteMaskCoversExactlyTheRealSites)
{
    std::uint32_t mask = 0;
    for (SiteId id : all_sites())
        mask |= prudence::perturb::site_bit(id);
    EXPECT_EQ(mask, prudence::perturb::all_sites());
    EXPECT_EQ(prudence::perturb::all_sites() & 1u, 0u)
        << "kNone's bit must never be part of the full mask";
}

TEST(SimNames, BugNamesRoundTrip)
{
    EXPECT_EQ(prudence::perturb::bug_from_name(
                  prudence::perturb::bug_name(BugId::kStaleSpillTag)),
              BugId::kStaleSpillTag);
    EXPECT_EQ(prudence::perturb::bug_from_name("no-such-bug"),
              BugId::kNone);
}

TEST(SimNames, ShrinkMaskFindsTheFailingPair)
{
    // A synthetic failure that needs a fault site and a yield site
    // armed together: delta debugging must drop everything else.
    const std::uint32_t pair = perturb::site_bit(SiteId::kBuddyAlloc) |
                               perturb::site_bit(SiteId::kMagSpillTag);
    int runs = 0;
    auto fails = [&](std::uint32_t mask) {
        ++runs;
        return (mask & pair) == pair;
    };
    EXPECT_EQ(perturb::shrink_mask(perturb::all_sites(), fails), pair);
    EXPECT_EQ(runs, static_cast<int>(SiteId::kMaxSite))
        << "one trial of the empty mask, then one per site";
    EXPECT_EQ(perturb::shrink_mask(pair, fails), pair);
    // A failure that needs no site shrinks to the empty mask in one
    // trial, and "none" names (and parses back to) that mask.
    runs = 0;
    auto always = [&](std::uint32_t) {
        ++runs;
        return true;
    };
    EXPECT_EQ(perturb::shrink_mask(perturb::all_sites(), always), 0u);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(perturb::mask_names(0), "none");
    std::uint32_t parsed = pair;
    EXPECT_TRUE(perturb::mask_from_names("none", parsed));
    EXPECT_EQ(parsed, 0u);
}

TEST(SimDecide, ReplaysArePinnedAcrossTheRegistryMerge)
{
    // Folds of decision sequences recorded before the fault and
    // schedule registries merged (horizon 100,000): the schedule
    // policy over every race window, and a 2% fault policy over every
    // site that was a fault site. A change here invalidates every
    // recorded replay line and decision audit.
    struct Pin
    {
        std::uint64_t seed;
        std::uint64_t schedule_fp;
        std::uint64_t schedule_fires;
        std::uint64_t fault_fp;
        std::uint64_t fault_fires;
    };
    const Pin pins[] = {
        {1, 0x28f451ae1f468a47ULL, 379958, 0x5e0f4d34a15ec333ULL, 21831},
        {42, 0x5a0d6d58acc97ffbULL, 381169, 0x3677332e4eec5568ULL, 22216},
        {0xDEADBEEF, 0x59f1508a6d697b5dULL, 379957, 0x33106d4c1b5ee1a9ULL,
         22284},
    };
    const SiteId fault_sites[] = {
        SiteId::kArenaMap,     SiteId::kBuddyAlloc,   SiteId::kPcpRefill,
        SiteId::kSlabGrow,     SiteId::kGpDelay,      SiteId::kDrainerStall,
        SiteId::kExpediteDrop, SiteId::kRefillFail,   SiteId::kSlowPath,
        SiteId::kLatentStarve, SiteId::kGovernorAction,
    };
    prudence::perturb::Policy fault;
    fault.probability = 0.02;
    constexpr std::uint64_t kHorizon = 100000;
    for (const Pin& pin : pins) {
        std::uint64_t fp = 0, fires = 0;
        for (SiteId id : all_sites()) {
            if (prudence::perturb::schedule_sites() &
                prudence::perturb::site_bit(id)) {
                fp ^= Injector::expected_fingerprint(pin.seed, id,
                                                     kSchedule, kHorizon);
                fires += Injector::expected_fires(pin.seed, id, kSchedule,
                                                  kHorizon);
            }
        }
        EXPECT_EQ(fp, pin.schedule_fp) << "seed " << pin.seed;
        EXPECT_EQ(fires, pin.schedule_fires) << "seed " << pin.seed;
        fp = fires = 0;
        for (SiteId id : fault_sites) {
            fp ^= Injector::expected_fingerprint(pin.seed, id, fault,
                                                 kHorizon);
            fires += Injector::expected_fires(pin.seed, id, fault, kHorizon);
        }
        EXPECT_EQ(fp, pin.fault_fp) << "seed " << pin.seed;
        EXPECT_EQ(fires, pin.fault_fires) << "seed " << pin.seed;
    }
}

TEST(SimDecide, IsAPureFunctionOfSeedSiteIndex)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
        for (SiteId site :
             {SiteId::kMagSpillTag, SiteId::kGpPublish}) {
            for (std::uint64_t k = 0; k < 200; ++k) {
                Decision a = Injector::decide(seed, site, kSchedule, k);
                Decision b = Injector::decide(seed, site, kSchedule, k);
                EXPECT_EQ(a.action, b.action);
                EXPECT_EQ(a.delay_ns, b.delay_ns);
            }
        }
    }
}

TEST(SimDecide, ProducesBothPerturbationFlavors)
{
    // Over a modest horizon the ~20% perturbation rate must produce
    // passes, yields and delays alike — a degenerate decision stream
    // would make the explorer useless.
    bool saw_none = false, saw_yield = false, saw_delay = false;
    for (std::uint64_t k = 0; k < 500; ++k) {
        Decision d =
            Injector::decide(7, SiteId::kSpinLockAcquire, kSchedule,
                             k);
        switch (d.action) {
        case Action::kNone:
            saw_none = true;
            EXPECT_EQ(d.delay_ns, 0u);
            break;
        case Action::kYield:
            saw_yield = true;
            break;
        case Action::kDelay:
            saw_delay = true;
            EXPECT_GE(d.delay_ns, 1u);
            EXPECT_LE(d.delay_ns, 4u);
            break;
        case Action::kFail:
            ADD_FAILURE() << "the schedule policy never fails a site";
            break;
        }
    }
    EXPECT_TRUE(saw_none);
    EXPECT_TRUE(saw_yield);
    EXPECT_TRUE(saw_delay);
}

TEST(SimDecide, DifferentSeedsDiverge)
{
    // Two seeds must not produce identical decision streams (they
    // would explore the same schedule twice).
    int diffs = 0;
    for (std::uint64_t k = 0; k < 256; ++k) {
        if (Injector::decide(1, SiteId::kMagFlush, kSchedule, k).action !=
            Injector::decide(2, SiteId::kMagFlush, kSchedule, k).action)
            ++diffs;
    }
    EXPECT_GT(diffs, 0);
}

TEST(SimScheduler, LiveRunMatchesOfflineReplay)
{
    Injector s;
    s.reset(/*seed=*/99);
    s.start(prudence::perturb::all_sites(), /*base_delay_ns=*/0);

    constexpr std::uint64_t kN = 300;
    for (std::uint64_t i = 0; i < kN; ++i) {
        s.arrive(SiteId::kMagSpillTag);
        if (i % 3 == 0)
            s.arrive(SiteId::kPcpDrain);
    }
    s.stop();

    auto spill = s.report(SiteId::kMagSpillTag);
    EXPECT_EQ(spill.evaluations, kN);
    const auto policy = prudence::perturb::schedule_policy(0);
    EXPECT_EQ(spill.fingerprint,
              Injector::expected_fingerprint(99, SiteId::kMagSpillTag,
                                             policy, kN));
    EXPECT_EQ(spill.fires, Injector::expected_fires(
                               99, SiteId::kMagSpillTag, policy, kN));

    auto drain = s.report(SiteId::kPcpDrain);
    EXPECT_EQ(drain.evaluations, kN / 3);
    EXPECT_EQ(drain.fingerprint,
              Injector::expected_fingerprint(99, SiteId::kPcpDrain,
                                             policy, drain.evaluations));

    // report_all lists exactly the sites that were evaluated.
    auto all = s.report_all();
    ASSERT_EQ(all.size(), 2u);
}

TEST(SimScheduler, SiteMaskGatesEvaluation)
{
    Injector s;
    s.reset(5);
    s.start(prudence::perturb::site_bit(SiteId::kGpPhase),
            /*base_delay_ns=*/0);
    s.arrive(SiteId::kGpPhase);
    s.arrive(SiteId::kGpPublish);  // masked out
    s.stop();
    EXPECT_EQ(s.report(SiteId::kGpPhase).evaluations, 1u);
    EXPECT_EQ(s.report(SiteId::kGpPublish).evaluations, 0u);
}

TEST(SimScheduler, InactiveSchedulerCountsNothing)
{
    Injector s;
    s.reset(5);
    s.arrive(SiteId::kMagFlush);  // before start()
    EXPECT_EQ(s.report(SiteId::kMagFlush).evaluations, 0u);

    s.start();
    s.arrive(SiteId::kMagFlush);
    s.stop();
    s.arrive(SiteId::kMagFlush);  // after stop()
    EXPECT_EQ(s.report(SiteId::kMagFlush).evaluations, 1u);

    // reset() wipes the counters for the next session.
    s.reset(6);
    EXPECT_EQ(s.report(SiteId::kMagFlush).evaluations, 0u);
}

static_assert(std::is_trivially_destructible_v<Injector>,
              "the process-wide injector needs no exit-time teardown");

TEST(SimScheduler, LocalSessionLeavesProcessGateIdle)
{
    Injector s;
    s.reset(3);
    s.start();
    EXPECT_TRUE(s.active());
    EXPECT_FALSE(prudence::perturb::session_active());
    EXPECT_FALSE(Injector::instance().active());
    s.stop();
}

TEST(SimScheduler, PriorityIsBoundedAndEpochSensitive)
{
    std::set<unsigned> drawn;
    for (std::uint32_t id = 0; id < 64; ++id) {
        for (std::uint64_t epoch = 0;
             epoch <= Injector::kInversionPoints; ++epoch) {
            unsigned p = Injector::priority(42, id, epoch);
            EXPECT_LE(p, Injector::kMaxPriority);
            EXPECT_EQ(p, Injector::priority(42, id, epoch))
                << "priority must be pure";
            drawn.insert(p);
        }
    }
    // Over 64 threads x 4 epochs every priority level should appear.
    EXPECT_EQ(drawn.size(), Injector::kMaxPriority + 1);

    // An inversion epoch re-draw must actually change some priorities,
    // or the PCT change points are inert.
    int changed = 0;
    for (std::uint32_t id = 0; id < 64; ++id)
        if (Injector::priority(42, id, 0) !=
            Injector::priority(42, id, 1))
            ++changed;
    EXPECT_GT(changed, 0);
}

TEST(SimBug, ArmDisarm)
{
    EXPECT_FALSE(prudence::perturb::bug_enabled(BugId::kStaleSpillTag));
    prudence::perturb::set_bug(BugId::kStaleSpillTag);
    EXPECT_TRUE(prudence::perturb::bug_enabled(BugId::kStaleSpillTag));
    EXPECT_FALSE(prudence::perturb::bug_enabled(BugId::kNone))
        << "kNone is never 'enabled'";
    prudence::perturb::set_bug(BugId::kNone);
    EXPECT_FALSE(prudence::perturb::bug_enabled(BugId::kStaleSpillTag));
}

// ---------------------------------------------------------------------
// Reference model.
// ---------------------------------------------------------------------

TEST(SimModel, CleanLifecycleRecordsNoViolation)
{
    ModelChecker m;
    std::uint64_t completed = 0;
    m.set_completed_provider([&completed] { return completed; });

    int obj = 0;
    m.on_defer(&obj, /*epoch_now=*/10);
    EXPECT_EQ(m.tracked(), 1u);
    m.on_spill(&obj, /*tag=*/12);  // conservative: tag >= defer epoch
    completed = 12;                // grace period for the tag elapsed
    m.on_reuse(&obj);
    EXPECT_EQ(m.tracked(), 0u);
    EXPECT_FALSE(m.has_violations());
    EXPECT_TRUE(m.violations().empty());
}

TEST(SimModel, StaleSpillTagTripsI1)
{
    ModelChecker m;
    int obj = 0;
    m.on_defer(&obj, /*epoch_now=*/10);
    m.on_spill(&obj, /*tag=*/9);  // the kStaleSpillTag hazard
    ASSERT_TRUE(m.has_violations());
    auto v = m.violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, "spill_tag_below_defer_epoch");
    EXPECT_EQ(v[0].object, &obj);
    EXPECT_EQ(v[0].defer_epoch, 10u);
    EXPECT_EQ(v[0].tag, 9u);
}

TEST(SimModel, ReuseBeforeGracePeriodTripsI2)
{
    ModelChecker m;
    std::uint64_t completed = 5;  // behind the defer epoch
    m.set_completed_provider([&completed] { return completed; });

    int obj = 0;
    m.on_defer(&obj, /*epoch_now=*/10);
    m.on_spill(&obj, /*tag=*/10);
    m.on_reuse(&obj);
    ASSERT_TRUE(m.has_violations());
    auto v = m.violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, "reuse_before_grace_period");
    EXPECT_EQ(v[0].completed, 5u);
}

TEST(SimModel, ReuseInsideReaderSectionTripsI2)
{
    ModelChecker m;
    std::uint64_t completed = 20;
    m.set_completed_provider([&completed] { return completed; });

    int obj = 0;
    m.on_reader_lock(/*slot=*/1, /*snapshot=*/8);
    m.on_defer(&obj, /*epoch_now=*/10);
    m.on_spill(&obj, /*tag=*/10);
    m.on_reuse(&obj);  // reader from epoch 8 still inside its section
    ASSERT_TRUE(m.has_violations());
    EXPECT_EQ(m.violations()[0].kind, "reuse_inside_reader_section");

    // After the reader leaves, the same lifecycle is clean.
    m.clear();
    m.on_reader_lock(1, 8);
    m.on_reader_unlock(1);
    m.on_defer(&obj, 10);
    m.on_spill(&obj, 10);
    m.on_reuse(&obj);
    EXPECT_FALSE(m.has_violations());
}

TEST(SimModel, LateReaderDoesNotBlockReuse)
{
    // A reader whose snapshot is PAST the object's grace period began
    // after the GP completed: it can never have seen the object.
    ModelChecker m;
    std::uint64_t completed = 20;
    m.set_completed_provider([&completed] { return completed; });

    int obj = 0;
    m.on_defer(&obj, 10);
    m.on_spill(&obj, 10);
    m.on_reader_lock(/*slot=*/3, /*snapshot=*/15);
    m.on_reuse(&obj);
    EXPECT_FALSE(m.has_violations());
}

TEST(SimModel, InstallRoutesVeneersAndUninstallStopsThem)
{
    ModelChecker m;
    ModelChecker::install(&m);
    EXPECT_EQ(ModelChecker::installed(), &m);

    int obj = 0;
    prudence::perturb::model_on_defer(&obj, 10);
    prudence::perturb::model_on_spill(&obj, 9);
    EXPECT_TRUE(m.has_violations());

    ModelChecker::install(nullptr);
    EXPECT_EQ(ModelChecker::installed(), nullptr);
    int other = 0;
    prudence::perturb::model_on_defer(&other, 1);  // dropped, no crash
    EXPECT_EQ(m.tracked(), 1u) << "only &obj, not the dropped &other";
}

TEST(SimModel, ClearForgetsStateButKeepsProvider)
{
    ModelChecker m;
    std::uint64_t completed = 100;
    m.set_completed_provider([&completed] { return completed; });

    int a, b;
    m.on_defer(&a, 10);
    m.on_spill(&a, 9);
    ASSERT_TRUE(m.has_violations());
    m.clear();
    EXPECT_FALSE(m.has_violations());
    EXPECT_EQ(m.tracked(), 0u);

    // The provider survives clear(): the next run reuses the hooks.
    m.on_defer(&b, 10);
    m.on_spill(&b, 10);
    m.on_reuse(&b);
    EXPECT_FALSE(m.has_violations());
}

}  // namespace
