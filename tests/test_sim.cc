/**
 * @file
 * Unit tests for the deterministic schedule-fuzzing layer
 * (src/sim/): the seed-pure decision function, the live scheduler's
 * agreement with its own offline replay, PCT priority drawing, and
 * the sequential reference model's invariant checks.
 *
 * Everything here runs single-threaded against isolated Scheduler /
 * ModelChecker instances — the cross-thread behaviour is exercised by
 * tools/schedfuzz (including --self-test) and the CI smoke script.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

#include "sim/ref_model.h"
#include "sim/sim.h"

namespace {

using prudence::sim::Action;
using prudence::sim::BugId;
using prudence::sim::Decision;
using prudence::sim::ModelChecker;
using prudence::sim::Scheduler;
using prudence::sim::YieldId;

std::vector<YieldId>
all_sites()
{
    std::vector<YieldId> out;
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(YieldId::kMaxYield); ++i)
        out.push_back(static_cast<YieldId>(i));
    return out;
}

TEST(SimNames, YieldNamesRoundTripAndAreUnique)
{
    std::set<std::string> seen;
    for (YieldId id : all_sites()) {
        const char* name = prudence::sim::yield_name(id);
        ASSERT_STRNE(name, "unknown");
        ASSERT_STRNE(name, "none");
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate yield name: " << name;
        EXPECT_EQ(prudence::sim::yield_from_name(name), id);
    }
    EXPECT_EQ(prudence::sim::yield_from_name("no_such_site"),
              YieldId::kNone);
}

TEST(SimNames, SiteMaskCoversExactlyTheRealSites)
{
    std::uint32_t mask = 0;
    for (YieldId id : all_sites())
        mask |= prudence::sim::yield_bit(id);
    EXPECT_EQ(mask, prudence::sim::all_yields());
    EXPECT_EQ(prudence::sim::all_yields() & 1u, 0u)
        << "kNone's bit must never be part of the full mask";
}

TEST(SimNames, BugNamesRoundTrip)
{
    EXPECT_EQ(prudence::sim::bug_from_name(
                  prudence::sim::bug_name(BugId::kStaleSpillTag)),
              BugId::kStaleSpillTag);
    EXPECT_EQ(prudence::sim::bug_from_name("no-such-bug"), BugId::kNone);
}

TEST(SimDecide, IsAPureFunctionOfSeedSiteIndex)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
        for (YieldId site :
             {YieldId::kMagSpillTag, YieldId::kGpPublish}) {
            for (std::uint64_t k = 0; k < 200; ++k) {
                Decision a = Scheduler::decide(seed, site, k);
                Decision b = Scheduler::decide(seed, site, k);
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
            Scheduler::decide(7, YieldId::kSpinLockAcquire, k);
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
        if (Scheduler::decide(1, YieldId::kMagFlush, k).action !=
            Scheduler::decide(2, YieldId::kMagFlush, k).action)
            ++diffs;
    }
    EXPECT_GT(diffs, 0);
}

TEST(SimScheduler, LiveRunMatchesOfflineReplay)
{
    Scheduler s;
    s.reset(/*seed=*/99);
    s.start(prudence::sim::all_yields(), /*base_delay_ns=*/0);

    constexpr std::uint64_t kN = 300;
    for (std::uint64_t i = 0; i < kN; ++i) {
        s.yield_point(YieldId::kMagSpillTag);
        if (i % 3 == 0)
            s.yield_point(YieldId::kPcpDrain);
    }
    s.stop();

    auto spill = s.report(YieldId::kMagSpillTag);
    EXPECT_EQ(spill.evaluations, kN);
    EXPECT_EQ(spill.fingerprint, Scheduler::expected_fingerprint(
                                     99, YieldId::kMagSpillTag, kN));
    EXPECT_EQ(spill.perturbations,
              Scheduler::expected_perturbations(
                  99, YieldId::kMagSpillTag, kN));

    auto drain = s.report(YieldId::kPcpDrain);
    EXPECT_EQ(drain.evaluations, kN / 3);
    EXPECT_EQ(drain.fingerprint,
              Scheduler::expected_fingerprint(99, YieldId::kPcpDrain,
                                              drain.evaluations));

    // report_all lists exactly the sites that were evaluated.
    auto all = s.report_all();
    ASSERT_EQ(all.size(), 2u);
}

TEST(SimScheduler, SiteMaskGatesEvaluation)
{
    Scheduler s;
    s.reset(5);
    s.start(prudence::sim::yield_bit(YieldId::kGpPhase),
            /*base_delay_ns=*/0);
    s.yield_point(YieldId::kGpPhase);
    s.yield_point(YieldId::kGpPublish);  // masked out
    s.stop();
    EXPECT_EQ(s.report(YieldId::kGpPhase).evaluations, 1u);
    EXPECT_EQ(s.report(YieldId::kGpPublish).evaluations, 0u);
}

TEST(SimScheduler, InactiveSchedulerCountsNothing)
{
    Scheduler s;
    s.reset(5);
    s.yield_point(YieldId::kMagFlush);  // before start()
    EXPECT_EQ(s.report(YieldId::kMagFlush).evaluations, 0u);

    s.start();
    s.yield_point(YieldId::kMagFlush);
    s.stop();
    s.yield_point(YieldId::kMagFlush);  // after stop()
    EXPECT_EQ(s.report(YieldId::kMagFlush).evaluations, 1u);

    // reset() wipes the counters for the next session.
    s.reset(6);
    EXPECT_EQ(s.report(YieldId::kMagFlush).evaluations, 0u);
}

static_assert(std::is_trivially_destructible_v<Scheduler>,
              "the process-wide scheduler needs no exit-time teardown");

TEST(SimScheduler, LocalSessionLeavesProcessGateIdle)
{
    Scheduler s;
    s.reset(3);
    s.start();
    EXPECT_TRUE(s.active());
    EXPECT_FALSE(prudence::sim::session_active());
    EXPECT_FALSE(Scheduler::instance().active());
    s.stop();
}

TEST(SimScheduler, PriorityIsBoundedAndEpochSensitive)
{
    std::set<unsigned> drawn;
    for (std::uint32_t id = 0; id < 64; ++id) {
        for (std::uint64_t epoch = 0;
             epoch <= Scheduler::kInversionPoints; ++epoch) {
            unsigned p = Scheduler::priority(42, id, epoch);
            EXPECT_LE(p, Scheduler::kMaxPriority);
            EXPECT_EQ(p, Scheduler::priority(42, id, epoch))
                << "priority must be pure";
            drawn.insert(p);
        }
    }
    // Over 64 threads x 4 epochs every priority level should appear.
    EXPECT_EQ(drawn.size(), Scheduler::kMaxPriority + 1);

    // An inversion epoch re-draw must actually change some priorities,
    // or the PCT change points are inert.
    int changed = 0;
    for (std::uint32_t id = 0; id < 64; ++id)
        if (Scheduler::priority(42, id, 0) !=
            Scheduler::priority(42, id, 1))
            ++changed;
    EXPECT_GT(changed, 0);
}

TEST(SimBug, ArmDisarm)
{
    EXPECT_FALSE(prudence::sim::bug_enabled(BugId::kStaleSpillTag));
    prudence::sim::set_bug(BugId::kStaleSpillTag);
    EXPECT_TRUE(prudence::sim::bug_enabled(BugId::kStaleSpillTag));
    EXPECT_FALSE(prudence::sim::bug_enabled(BugId::kNone))
        << "kNone is never 'enabled'";
    prudence::sim::set_bug(BugId::kNone);
    EXPECT_FALSE(prudence::sim::bug_enabled(BugId::kStaleSpillTag));
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
    prudence::sim::model_on_defer(&obj, 10);
    prudence::sim::model_on_spill(&obj, 9);
    EXPECT_TRUE(m.has_violations());

    ModelChecker::install(nullptr);
    EXPECT_EQ(ModelChecker::installed(), nullptr);
    int other = 0;
    prudence::sim::model_on_defer(&other, 1);  // dropped, no crash
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
