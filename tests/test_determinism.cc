/**
 * @file
 * Determinism regression: the same fault seed must reproduce the same
 * run, bit for bit, when nothing else is a source of nondeterminism.
 *
 * The in-process analogue of `prudtorture --deterministic`: a single
 * thread drives an ops-bounded alloc/defer/advance workload over a
 * PrudenceAllocator with no background GP thread and no maintenance
 * thread. Two such runs with the same seed must agree on
 *
 *  - every fault site's evaluation count, trigger count and decision
 *    fingerprint (and each fingerprint must equal the offline
 *    replay), and
 *  - every accounting counter in the post-quiesce cache snapshots and
 *    buddy statistics.
 *
 * A third run with a different seed must NOT produce the same
 * fingerprints — otherwise the "determinism" would be vacuous.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "api/allocator_factory.h"
#include "core/prudence_allocator.h"
#include "page/buddy_allocator.h"
#include "perturb/perturb.h"
#include "rcu/rcu_domain.h"
#include "stats/cache_stats.h"
#include "workload/engine.h"
#include "workload/loadgen.h"
#include "workload/scenario.h"

namespace {

using prudence::perturb::Injector;
using prudence::perturb::Policy;
using prudence::perturb::SiteId;

struct RunResult
{
    std::vector<prudence::perturb::SiteReport> sites;
    std::vector<prudence::CacheStatsSnapshot> snaps;
    prudence::BuddyStatsSnapshot buddy;
    std::uint64_t alloc_failures = 0;
};

constexpr std::size_t kOps = 4000;
constexpr std::size_t kSlots = 128;

RunResult
run_once(std::uint64_t seed)
{
    Injector& fi = Injector::instance();
    fi.reset(seed);
    Policy prob;
    prob.probability = 0.02;
    fi.arm(SiteId::kBuddyAlloc, prob);
    fi.arm(SiteId::kSlabGrow, prob);
    fi.arm(SiteId::kRefillFail, prob);
    Policy nth;
    nth.every_nth = 7;
    fi.arm(SiteId::kSlowPath, nth);

    prudence::RcuConfig rcu_cfg;
    rcu_cfg.background_gp_thread = false;
    prudence::RcuDomain domain(rcu_cfg);

    prudence::PrudenceConfig cfg;
    cfg.arena_bytes = 8u << 20;
    cfg.magazine_capacity = 8;
    cfg.maintenance_interval = std::chrono::microseconds(0);
    prudence::PrudenceAllocator alloc(domain, cfg);
    prudence::CacheId cache = alloc.create_cache("det.obj", 64);

    std::mt19937_64 rng(seed * 1000003);
    std::vector<void*> slots(kSlots, nullptr);
    RunResult out;

    for (std::size_t i = 0; i < kOps; ++i) {
        if (i % 256 == 255)
            domain.advance();
        void* p = alloc.cache_alloc(cache);
        if (p == nullptr) {
            ++out.alloc_failures;
            domain.advance();
            continue;
        }
        std::size_t s = rng() % kSlots;
        if (slots[s] != nullptr)
            alloc.cache_free_deferred(cache, slots[s]);
        slots[s] = p;
    }
    for (void*& p : slots) {
        if (p != nullptr)
            alloc.cache_free(cache, p);
        p = nullptr;
    }
    alloc.quiesce();

    out.sites = fi.report_all();
    out.snaps = alloc.snapshots();
    out.buddy = alloc.page_allocator().stats();
    fi.reset(seed);  // disarm before teardown
    return out;
}

void
expect_sites_equal(const RunResult& a, const RunResult& b)
{
    ASSERT_EQ(a.sites.size(), b.sites.size());
    for (std::size_t i = 0; i < a.sites.size(); ++i) {
        const auto& x = a.sites[i];
        const auto& y = b.sites[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.evaluations, y.evaluations)
            << prudence::perturb::site_name(x.id);
        EXPECT_EQ(x.fires, y.fires)
            << prudence::perturb::site_name(x.id);
        EXPECT_EQ(x.fingerprint, y.fingerprint)
            << prudence::perturb::site_name(x.id);
    }
}

TEST(Determinism, SameSeedSameFingerprintsAndAccounting)
{
    RunResult a = run_once(42);
    RunResult b = run_once(42);

    expect_sites_equal(a, b);
    EXPECT_EQ(a.alloc_failures, b.alloc_failures);

    // Live fingerprints must also equal their own offline replay.
    for (const auto& r : a.sites) {
        EXPECT_EQ(r.fingerprint,
                  Injector::expected_fingerprint(
                      42, r.id, r.policy, r.evaluations))
            << prudence::perturb::site_name(r.id);
        EXPECT_EQ(r.fires, Injector::expected_fires(
                                  42, r.id, r.policy, r.evaluations))
            << prudence::perturb::site_name(r.id);
    }

    // Accounting snapshot: every counter, not just the totals.
    ASSERT_EQ(a.snaps.size(), b.snaps.size());
    for (std::size_t i = 0; i < a.snaps.size(); ++i) {
        const auto& x = a.snaps[i];
        const auto& y = b.snaps[i];
        ASSERT_EQ(x.cache_name, y.cache_name);
        EXPECT_EQ(x.alloc_calls, y.alloc_calls) << x.cache_name;
        EXPECT_EQ(x.cache_hits, y.cache_hits) << x.cache_name;
        EXPECT_EQ(x.free_calls, y.free_calls) << x.cache_name;
        EXPECT_EQ(x.deferred_free_calls, y.deferred_free_calls)
            << x.cache_name;
        EXPECT_EQ(x.grows, y.grows) << x.cache_name;
        EXPECT_EQ(x.live_objects, y.live_objects) << x.cache_name;
        EXPECT_EQ(x.deferred_outstanding, y.deferred_outstanding)
            << x.cache_name;
        EXPECT_EQ(x.oom_failures, y.oom_failures) << x.cache_name;
    }

    EXPECT_EQ(a.buddy.alloc_calls, b.buddy.alloc_calls);
    EXPECT_EQ(a.buddy.failed_allocs, b.buddy.failed_allocs);
    EXPECT_EQ(a.buddy.bad_frees, b.buddy.bad_frees);

    // Nothing leaked either run.
    for (const auto& s : a.snaps) {
        EXPECT_EQ(s.live_objects, 0) << s.cache_name;
        EXPECT_EQ(s.deferred_outstanding, 0) << s.cache_name;
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    RunResult a = run_once(42);
    RunResult c = run_once(43);

    // The workload itself (rng seeded off the fault seed) differs, so
    // at minimum the fingerprints of any site with evaluations under
    // both runs must differ somewhere.
    bool diverged = a.sites.size() != c.sites.size();
    for (std::size_t i = 0;
         !diverged && i < a.sites.size() && i < c.sites.size(); ++i) {
        if (a.sites[i].fingerprint != c.sites[i].fingerprint ||
            a.sites[i].evaluations != c.sites[i].evaluations)
            diverged = true;
    }
    EXPECT_TRUE(diverged)
        << "two different seeds produced identical decision streams";
}

// -----------------------------------------------------------------
// Scenario engine determinism (DESIGN.md §15): the op stream is a
// pure function of (spec, shard, seed) — identical across repeated
// runs and across engine thread counts.
// -----------------------------------------------------------------

prudence::ScenarioSpec
quick_scenario(const char* base, std::uint64_t seed)
{
    prudence::ScenarioSpec s;
    EXPECT_TRUE(prudence::stock_scenario(base, s));
    s.duration_ms = 40;  // short schedule; unpaced runs drain it fast
    s.seed = seed;
    prudence::clamp_scenario(s);
    return s;
}

TEST(ScenarioDeterminism, ArrivalScheduleIsSeedStableAndMonotone)
{
    prudence::ScenarioSpec spec = quick_scenario("burst", 11);
    for (unsigned shard = 0; shard < spec.shards; ++shard) {
        std::vector<std::uint64_t> a;
        std::vector<std::uint64_t> b;
        for (std::vector<std::uint64_t>* out : {&a, &b}) {
            prudence::ArrivalGen gen(spec, shard, spec.seed);
            std::uint64_t t = 0;
            while (gen.next(t))
                out->push_back(t);
        }
        ASSERT_EQ(a, b) << "shard " << shard;
        ASSERT_FALSE(a.empty()) << "shard " << shard;
        const std::uint64_t end_ns =
            std::uint64_t{spec.duration_ms} * 1'000'000;
        std::uint64_t prev = 0;
        for (std::uint64_t t : a) {
            EXPECT_GT(t, prev);
            EXPECT_LT(t, end_ns);
            prev = t;
        }
    }
}

TEST(ScenarioDeterminism, ShardScriptMatchesItsOfflineReplay)
{
    prudence::ScenarioSpec spec = quick_scenario("churn", 5);
    for (unsigned shard = 0; shard < spec.shards; ++shard) {
        prudence::ShardScript live(spec, shard, spec.seed);
        std::uint64_t live_count = 0;
        prudence::ScenarioRequest req;
        while (live.next(req))
            ++live_count;

        std::uint64_t count = 0;
        std::uint64_t fp = 0;
        prudence::ShardScript::replay(spec, shard, spec.seed, count,
                                      fp);
        EXPECT_EQ(live_count, count) << "shard " << shard;
        EXPECT_EQ(live.fingerprint(), fp) << "shard " << shard;
    }
}

TEST(ScenarioDeterminism, KeySkewSequenceIsSeedStable)
{
    prudence::ScenarioSpec spec = quick_scenario("burst", 23);
    prudence::ShardScript a(spec, 0, spec.seed);
    prudence::ShardScript b(spec, 0, spec.seed);
    prudence::ScenarioRequest ra;
    prudence::ScenarioRequest rb;
    while (true) {
        bool more_a = a.next(ra);
        bool more_b = b.next(rb);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        EXPECT_EQ(ra.arrival_ns, rb.arrival_ns);
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.key, rb.key);
        EXPECT_EQ(ra.conn, rb.conn);
    }
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ScenarioDeterminism, RunFingerprintIndependentOfThreadCount)
{
    prudence::ScenarioSpec spec = quick_scenario("churn", 9);
    prudence::ScenarioRunOptions opt;
    opt.paced = false;  // service-time mode: drain at full speed
    opt.telemetry = false;

    prudence::ScenarioResult results[2];
    const unsigned threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        prudence::RcuDomain rcu;
        prudence::PrudenceConfig cfg;
        cfg.arena_bytes = 64 << 20;
        cfg.cpus = 4;
        auto alloc = prudence::make_prudence_allocator(rcu, cfg);
        opt.threads = threads[i];
        results[i] = prudence::run_scenario(*alloc, rcu, spec, opt);
    }

    EXPECT_EQ(results[0].completed_requests,
              results[1].completed_requests);
    EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
    ASSERT_EQ(results[0].shard_fingerprints.size(),
              results[1].shard_fingerprints.size());
    for (std::size_t i = 0; i < results[0].shard_fingerprints.size();
         ++i)
        EXPECT_EQ(results[0].shard_fingerprints[i],
                  results[1].shard_fingerprints[i])
            << "shard " << i;

    // Both runs must also agree with the offline replay audit.
    std::vector<std::uint64_t> expect_fps;
    std::uint64_t expect_total = 0;
    for (unsigned shard = 0; shard < spec.shards; ++shard) {
        std::uint64_t count = 0;
        std::uint64_t fp = 0;
        prudence::ShardScript::replay(spec, shard, spec.seed, count,
                                      fp);
        expect_total += count;
        expect_fps.push_back(fp);
    }
    EXPECT_EQ(results[0].completed_requests, expect_total);
    EXPECT_EQ(results[0].shard_fingerprints, expect_fps);
    EXPECT_EQ(results[0].fingerprint,
              prudence::combine_fingerprints(expect_fps));
}

TEST(ScenarioDeterminism, DifferentScenarioSeedsDiverge)
{
    prudence::ScenarioSpec spec = quick_scenario("burst", 1);
    std::uint64_t c1 = 0;
    std::uint64_t f1 = 0;
    prudence::ShardScript::replay(spec, 0, 1, c1, f1);
    std::uint64_t c2 = 0;
    std::uint64_t f2 = 0;
    prudence::ShardScript::replay(spec, 0, 2, c2, f2);
    EXPECT_NE(f1, f2)
        << "two different scenario seeds produced identical op "
           "streams";
}

}  // namespace
