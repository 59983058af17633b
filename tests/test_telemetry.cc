/**
 * @file
 * Tests for the telemetry subsystem (DESIGN.md §12): the downsampling
 * time series, the multi-probe Monitor, watermark hysteresis, the
 * exporters (with golden files), the buddy snapshot-coherence
 * contract the probes rely on, the age/section histograms the stamp
 * sites feed, the MemorySampler adapter and the prudstat renderer.
 *
 * Golden files pin the exporter byte format; timestamps are injected
 * through sample_at() so the outputs are fully deterministic (no
 * normalization pass needed). Regenerate after an INTENTIONAL format
 * change with:
 *   PRUDENCE_UPDATE_GOLDEN=1 ./tests/test_telemetry
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/allocator_factory.h"
#include "page/buddy_allocator.h"
#include "rcu/rcu_domain.h"
#include "stats/memory_sampler.h"
#include "telemetry/monitor.h"
#include "telemetry/prudstat.h"
#include "telemetry/telemetry.h"
#include "telemetry/time_series.h"
#include "trace/exporter.h"
#include "trace/metrics_registry.h"
#include "trace/tracer.h"

namespace prudence::telemetry {
namespace {

// ---------------------------------------------------------------------
// TimeSeries: DAMON-style 2:1 downsampling.
// ---------------------------------------------------------------------

TEST(TimeSeries, RawPointsBeforeAnyFold)
{
    TimeSeries ts(8);
    ts.append(100, 7);
    ts.append(200, 9);
    auto pts = ts.points();
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(ts.samples_per_point(), 1u);
    EXPECT_EQ(pts[0].t_first_ns, 100u);
    EXPECT_EQ(pts[0].first, 7u);
    EXPECT_EQ(pts[1].last, 9u);
    EXPECT_EQ(pts[1].count, 1u);
}

TEST(TimeSeries, FoldPreservesFirstLastExtremaAcrossRepeatedFolds)
{
    // 1000 samples into capacity 8: seven-plus folds. The fold must
    // preserve the first and last raw sample, the global extrema, and
    // the total count/sum at every resolution.
    TimeSeries ts(8);
    constexpr std::uint64_t kN = 1000;
    std::uint64_t expect_min = ~0ull, expect_max = 0;
    double expect_sum = 0.0;
    std::uint64_t first_v = 0, last_v = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
        // Spiky deterministic values: global max planted mid-run,
        // global min near the end, neither at a fold boundary.
        std::uint64_t v = 500 + (i * 37) % 101;
        if (i == 473)
            v = 90000;  // global max
        if (i == 881)
            v = 3;  // global min
        if (i == 0)
            first_v = v;
        last_v = v;
        expect_min = v < expect_min ? v : expect_min;
        expect_max = v > expect_max ? v : expect_max;
        expect_sum += static_cast<double>(v);
        ts.append(1000 + i * 500, v);
    }

    auto pts = ts.points();
    ASSERT_FALSE(pts.empty());
    EXPECT_LE(pts.size(), ts.capacity());
    EXPECT_EQ(ts.total_samples(), kN);

    // samples_per_point doubled some whole number of times.
    std::size_t spp = ts.samples_per_point();
    EXPECT_GT(spp, 1u);
    EXPECT_EQ(spp & (spp - 1), 0u) << "not a power of two: " << spp;

    // First/last raw sample survive verbatim.
    EXPECT_EQ(pts.front().t_first_ns, 1000u);
    EXPECT_EQ(pts.front().first, first_v);
    EXPECT_EQ(pts.back().t_last_ns, 1000u + (kN - 1) * 500);
    EXPECT_EQ(pts.back().last, last_v);

    // Global extrema, count and sum survive aggregation.
    std::uint64_t got_min = ~0ull, got_max = 0, got_count = 0;
    double got_sum = 0.0;
    for (const SeriesPoint& p : pts) {
        got_min = p.min < got_min ? p.min : got_min;
        got_max = p.max > got_max ? p.max : got_max;
        got_count += p.count;
        got_sum += p.sum;
    }
    EXPECT_EQ(got_min, expect_min);
    EXPECT_EQ(got_max, expect_max);
    EXPECT_EQ(got_count, kN);
    EXPECT_DOUBLE_EQ(got_sum, expect_sum);

    // Timestamps stay monotone within and across points.
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_LE(pts[i].t_first_ns, pts[i].t_last_ns) << "point " << i;
        if (i > 0) {
            EXPECT_LE(pts[i - 1].t_last_ns, pts[i].t_first_ns)
                << "points " << i - 1 << "/" << i;
        }
    }
}

TEST(TimeSeries, PendingBucketKeepsCoverageComplete)
{
    // After a fold, samples_per_point > 1: a partially-filled pending
    // bucket must still appear in points() so no sample is invisible.
    TimeSeries ts(4);
    for (std::uint64_t i = 0; i < 5; ++i)
        ts.append(i * 10, i);
    auto pts = ts.points();
    std::uint64_t covered = 0;
    for (const SeriesPoint& p : pts)
        covered += p.count;
    EXPECT_EQ(covered, 5u);
    EXPECT_EQ(pts.back().last, 4u);
}

// ---------------------------------------------------------------------
// Monitor: probes, sampling, churn.
// ---------------------------------------------------------------------

TEST(Monitor, SampleAtRecordsEveryProbe)
{
    Monitor m;
    std::atomic<std::uint64_t> v{10};
    ProbeId id = m.add_probe("test.v", "units",
                             [&v] { return v.load(); });
    m.sample_at(1'000'000);
    v.store(30);
    m.sample_at(2'000'000);

    EXPECT_EQ(m.rounds(), 2u);
    EXPECT_EQ(m.start_time_ns(), 1'000'000u);
    SeriesSnapshot s = m.series(id);
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.points[0].first, 10u);
    EXPECT_EQ(s.points[1].first, 30u);
    EXPECT_EQ(s.total_samples, 2u);

    auto latest = m.latest();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest[0].first, "test.v");
    EXPECT_EQ(latest[0].second, 30u);
}

TEST(Monitor, RemovedProbeIsNeverCalledAgainButSeriesIsRetained)
{
    Monitor m;
    std::atomic<int> calls{0};
    ProbeId id = m.add_probe("test.gone", "units", [&calls] {
        return static_cast<std::uint64_t>(++calls);
    });
    m.sample_at(1'000'000);
    int calls_at_removal = calls.load();
    m.remove_probe(id);
    m.sample_at(2'000'000);
    m.sample_at(3'000'000);
    EXPECT_EQ(calls.load(), calls_at_removal);

    SeriesSnapshot s = m.series(id);
    EXPECT_FALSE(s.active);
    EXPECT_EQ(s.total_samples, 1u);  // retained for export
    EXPECT_TRUE(m.latest().empty()); // but not a live column
}

TEST(Monitor, ProbeGroupChurnUnderRunningSampler)
{
    // Groups register and unregister while the sampler thread runs —
    // the shape prudstat and per-phase bench probes create. Must not
    // crash, deadlock or call dead closures.
    MonitorConfig cfg;
    cfg.period = std::chrono::microseconds(200);
    Monitor m(cfg);
    m.start();

    std::atomic<bool> stop{false};
    std::thread churn([&] {
        std::mt19937 rng(7);
        for (int round = 0; round < 50; ++round) {
            ProbeGroup group(m);
            for (int p = 0; p < 3; ++p) {
                group.add("churn.p" + std::to_string(p), "units",
                          [round, p] {
                              return static_cast<std::uint64_t>(
                                  round * 10 + p);
                          });
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(rng() % 400));
        }  // group dtor unregisters concurrently with sampling
        stop.store(true);
    });
    while (!stop.load())
        m.sample_once();
    churn.join();
    m.stop();

    // Every registered probe's series was retained; none is active.
    auto snaps = m.snapshot();
    EXPECT_EQ(snaps.size(), 150u);
    for (const auto& s : snaps)
        EXPECT_FALSE(s.active) << s.name;
}

TEST(Monitor, StartStopArmsAndDisarmsStampSites)
{
    EXPECT_FALSE(active());
    Monitor m;
    m.start();
    EXPECT_TRUE(active());
    PRUDENCE_TELEM_STAMP(t);
    EXPECT_GT(t, 0u);
    int ran = 0;
    PRUDENCE_TELEM_STMT(ran = 1);
    EXPECT_EQ(ran, 1);
    m.stop();
    EXPECT_FALSE(active());
}

// ---------------------------------------------------------------------
// Watermark rules: hysteresis, for_at_least, trace/counter/callback.
// ---------------------------------------------------------------------

TEST(Watermark, FiresOncePerExcursionAndRearms)
{
    Monitor m;
    std::atomic<std::uint64_t> v{0};
    m.add_probe("wm.v", "bytes", [&v] { return v.load(); });

    std::vector<std::uint64_t> fired_values;
    WatermarkRule rule;
    rule.probe = "wm.v";
    rule.kind = WatermarkRule::Kind::kAbove;
    rule.threshold = 100;
    rule.on_fire = [&fired_values](const WatermarkRule&,
                                   std::uint64_t value) {
        fired_values.push_back(value);
    };
    std::size_t r = m.add_watermark(rule);

    std::uint64_t t = 1'000'000;
    auto step = [&](std::uint64_t value) {
        v.store(value);
        m.sample_at(t);
        t += 1'000'000;
    };

    step(50);   // below: idle
    step(150);  // breach: fires
    step(200);  // still breaching: no second fire
    step(180);  // still breaching: no second fire
    EXPECT_EQ(m.watermark_fires(r), 1u);
    step(90);   // leaves breach region: re-arms
    EXPECT_EQ(m.watermark_fires(r), 1u);
    step(300);  // new excursion: fires again
    EXPECT_EQ(m.watermark_fires(r), 2u);

    ASSERT_EQ(fired_values.size(), 2u);
    EXPECT_EQ(fired_values[0], 150u);
    EXPECT_EQ(fired_values[1], 300u);
}

TEST(Watermark, ForAtLeastRequiresSustainedBreach)
{
    Monitor m;
    std::atomic<std::uint64_t> v{0};
    m.add_probe("wm.v", "bytes", [&v] { return v.load(); });

    WatermarkRule rule;
    rule.probe = "wm.v";
    rule.threshold = 100;
    rule.for_at_least = std::chrono::milliseconds(10);
    std::size_t r = m.add_watermark(rule);

    auto ms = [](std::uint64_t x) { return x * 1'000'000; };
    v.store(150);
    m.sample_at(ms(0));  // breach begins: pending, not fired
    EXPECT_EQ(m.watermark_fires(r), 0u);
    m.sample_at(ms(5));  // held 5 ms < 10 ms
    EXPECT_EQ(m.watermark_fires(r), 0u);
    m.sample_at(ms(10));  // held 10 ms: fires
    EXPECT_EQ(m.watermark_fires(r), 1u);

    v.store(50);
    m.sample_at(ms(15));  // re-arm; pending clock resets
    v.store(150);
    m.sample_at(ms(20));  // new breach begins
    m.sample_at(ms(25));  // held 5 ms only — the old excursion's
    EXPECT_EQ(m.watermark_fires(r), 1u);  // time must not carry over
    m.sample_at(ms(30));  // held 10 ms: second fire
    EXPECT_EQ(m.watermark_fires(r), 2u);
}

TEST(Watermark, BelowKindFiresOnHeadroomCollapse)
{
    Monitor m;
    std::atomic<std::uint64_t> v{500};
    m.add_probe("wm.headroom", "pages", [&v] { return v.load(); });

    WatermarkRule rule;
    rule.probe = "wm.headroom";
    rule.kind = WatermarkRule::Kind::kBelow;
    rule.threshold = 10;
    std::size_t r = m.add_watermark(rule);

    m.sample_at(1'000'000);
    EXPECT_EQ(m.watermark_fires(r), 0u);
    v.store(3);
    m.sample_at(2'000'000);
    EXPECT_EQ(m.watermark_fires(r), 1u);
}

TEST(Watermark, EmitsTraceEventAndRegistryCounter)
{
    Monitor m;
    std::atomic<std::uint64_t> v{0};
    m.add_probe("wm.latent_bytes", "bytes", [&v] { return v.load(); });
    WatermarkRule rule;
    rule.probe = "wm.latent_bytes";
    rule.threshold = 1000;
    m.add_watermark(rule);

    trace::start();  // note: a fresh session resets the registry
    std::uint64_t counter_before = trace::MetricsRegistry::instance()
                                       .counter("telemetry.watermark_fires")
                                       .get();
    v.store(5000);
    m.sample_at(1'000'000);
    trace::stop();
    std::ostringstream os;
    trace::write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"watermark\""), std::string::npos)
        << "kWatermark event missing from the trace export";
    EXPECT_EQ(trace::MetricsRegistry::instance()
                  .counter("telemetry.watermark_fires")
                  .get(),
              counter_before + 1);
}

TEST(Watermark, RemoveWatermarkIsABarrierForItsCallback)
{
    Monitor m;
    std::atomic<std::uint64_t> v{5000};
    m.add_probe("wm.sig", "units", [&v] { return v.load(); });

    auto hits = std::make_unique<std::atomic<int>>(0);
    WatermarkRule rule;
    rule.probe = "wm.sig";
    rule.threshold = 1000;
    rule.on_fire = [h = hits.get()](const WatermarkRule&,
                                    std::uint64_t) { h->fetch_add(1); };
    std::size_t r = m.add_watermark(rule);

    m.sample_at(1'000'000);
    EXPECT_EQ(hits->load(), 1);
    EXPECT_EQ(m.watermark_fires(r), 1u);

    // Once remove_watermark() returns, the callback's captured state
    // may be destroyed; further excursions must not evaluate the rule.
    m.remove_watermark(r);
    hits.reset();
    v.store(0);
    m.sample_at(2'000'000);
    v.store(9000);
    m.sample_at(3'000'000);
    EXPECT_EQ(m.watermark_fires(r), 1u)
        << "removed rule evaluated again";
    m.remove_watermark(r);  // idempotent
}

TEST(Watermark, CallbackNeverOutlivesItsProbeGroup)
{
    // Regression: the sampler copies watermark callbacks out of the
    // monitor mutex before invoking them. A ProbeGroup (probes + the
    // group-scoped subsystem state its callbacks capture) torn down
    // between the copy and the invocation must win — the barrier in
    // remove_watermark() has to drop the in-flight copy, or the
    // callback dereferences freed memory. Run under ASan to make the
    // use-after-free loud.
    MonitorConfig cfg;
    cfg.period = std::chrono::microseconds(100);
    Monitor m(cfg);
    m.start();

    std::atomic<std::uint64_t> total_hits{0};
    std::atomic<bool> stop{false};
    std::thread churn([&] {
        for (int round = 0; round < 200; ++round) {
            // Group-scoped state the callback dereferences; freed
            // right after the group (and its watermark) go away.
            auto state = std::make_unique<std::atomic<std::uint64_t>>(0);
            ProbeGroup group(m);
            group.add("churn.wm", "units",
                      [] { return std::uint64_t{5000}; });
            WatermarkRule rule;
            rule.probe = "churn.wm";
            rule.threshold = 1000;
            rule.on_fire = [s = state.get()](const WatermarkRule&,
                                             std::uint64_t value) {
                s->store(value);  // UAF if the barrier is broken
            };
            group.add_watermark(rule);
            std::this_thread::sleep_for(
                std::chrono::microseconds(round % 7 * 50));
            total_hits.fetch_add(state->load() != 0 ? 1 : 0);
        }  // ~ProbeGroup: watermark removed before its probe
        stop.store(true);
    });
    while (!stop.load())
        m.sample_once();
    churn.join();
    m.stop();
    // The rule actually fired across the churn (the callbacks ran);
    // the real assertion is the absence of a crash/ASan report.
    EXPECT_GT(total_hits.load(), 0u);
}

// ---------------------------------------------------------------------
// Exporters: golden files over injected timestamps.
// ---------------------------------------------------------------------

std::string
golden_path(const char* file)
{
    return std::string(PRUDENCE_TEST_GOLDEN_DIR) + "/" + file;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
check_golden(const std::string& got, const char* golden_file)
{
    std::string path = golden_path(golden_file);
    if (std::getenv("PRUDENCE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        out << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::string want = read_file(path);
    ASSERT_FALSE(want.empty()) << "missing golden file " << path;
    EXPECT_EQ(got, want) << "exporter bytes diverged from " << path
                         << " (PRUDENCE_UPDATE_GOLDEN=1 to regenerate "
                            "after an intentional change)";
}

/// Deterministic two-probe monitor driven via sample_at: capacity 4
/// with 6 rounds forces one 2:1 fold, so the goldens also pin the
/// folded-point formatting.
void
build_golden_monitor(Monitor& m, std::vector<ProbeId>& ids)
{
    static const std::uint64_t kAlpha[] = {10, 20, 30, 25, 40, 15};
    static const std::uint64_t kBeta[] = {1, 1, 2, 3, 5, 8};
    auto step = std::make_shared<std::size_t>(0);  // shared cursor
    ids.push_back(m.add_probe("alpha.bytes", "bytes",
                              [step] { return kAlpha[*step]; }));
    ids.push_back(m.add_probe("beta.objects", "objects", [step] {
        return kBeta[(*step)++ % 6];
    }));
    for (std::uint64_t i = 0; i < 6; ++i)
        m.sample_at(1'000'000'000 + i * 10'000'000);
    m.remove_probe(ids[1]);  // pin the retired-series formatting too
}

TEST(Exporters, GoldenCsv)
{
    MonitorConfig cfg;
    cfg.series_capacity = 4;
    Monitor m(cfg);
    std::vector<ProbeId> ids;
    build_golden_monitor(m, ids);
    std::ostringstream os;
    m.write_csv(os);
    check_golden(os.str(), "telemetry.golden.csv");
}

TEST(Exporters, GoldenJson)
{
    MonitorConfig cfg;
    cfg.series_capacity = 4;
    Monitor m(cfg);
    std::vector<ProbeId> ids;
    build_golden_monitor(m, ids);
    std::ostringstream os;
    m.write_json(os);
    check_golden(os.str(), "telemetry.golden.json");
}

// ---------------------------------------------------------------------
// Buddy snapshot coherence (stats/counters.h contract).
// ---------------------------------------------------------------------

TEST(BuddyCoherence, IdentityHoldsUnderConcurrentChurn)
{
    // free + pcp_cached + used == capacity for EVERY snapshot taken
    // while allocs, frees, PCP refills and drains are in flight.
    BuddyConfig cfg;
    cfg.capacity_bytes = 8 << 20;
    cfg.cpus = 4;
    cfg.pcp_high_watermark = 32;
    cfg.pcp_batch = 8;
    BuddyAllocator buddy(cfg);
    ASSERT_TRUE(buddy.valid());

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&buddy, &stop, w] {
            std::mt19937 rng(1234 + w);
            std::vector<std::pair<void*, unsigned>> held;
            while (!stop.load(std::memory_order_relaxed)) {
                unsigned order = rng() % 4;
                if (void* p = buddy.alloc_pages(order))
                    held.emplace_back(p, order);
                if (held.size() > 64 || (rng() % 3 == 0 && !held.empty())) {
                    auto [p, o] = held.back();
                    held.pop_back();
                    buddy.free_pages(p, o);
                }
            }
            for (auto [p, o] : held)
                buddy.free_pages(p, o);
        });
    }

    for (int i = 0; i < 300; ++i) {
        BuddyStatsSnapshot s = buddy.stats();
        EXPECT_EQ(static_cast<std::int64_t>(s.free_pages) +
                      s.pcp_cached_pages + s.pages_in_use,
                  static_cast<std::int64_t>(s.capacity_pages))
            << "free=" << s.free_pages << " cached=" << s.pcp_cached_pages
            << " used=" << s.pages_in_use;
        // Per-order blocks fold to the same free_pages total.
        std::size_t from_orders = 0;
        for (unsigned o = 0; o <= kMaxPageOrder; ++o)
            from_orders += s.free_blocks[o] << o;
        EXPECT_EQ(from_orders, s.free_pages);
    }
    stop.store(true);
    for (auto& w : workers)
        w.join();
    EXPECT_TRUE(buddy.check_integrity());
}

// ---------------------------------------------------------------------
// Stamp sites: deferred-age and reader-section histograms.
// ---------------------------------------------------------------------

TEST(StampSites, DeferredAgeAndReaderSectionHistogramsPopulate)
{
    using trace::HistId;
    using trace::MetricsRegistry;
    auto count = [](HistId id) {
        return MetricsRegistry::instance()
            .histogram(id)
            .snapshot(false)
            .count;
    };
    // Drain whatever earlier tests recorded.
    MetricsRegistry::instance().histogram(HistId::kDeferredAgeNs)
        .snapshot(true);
    MetricsRegistry::instance().histogram(HistId::kReaderSectionNs)
        .snapshot(true);

    Monitor m;
    m.start();  // arms the stamp sites

    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds(200);
    RcuDomain rcu(rcfg);
    {
        PrudenceConfig cfg;
        cfg.arena_bytes = 8 << 20;
        auto alloc = make_prudence_allocator(rcu, cfg);
        CacheId id = alloc->create_cache("telem.obj", 64);
        for (int i = 0; i < 200; ++i) {
            void* p = alloc->cache_alloc(id);
            ASSERT_NE(p, nullptr);
            {
                RcuReadGuard guard(rcu);
            }
            alloc->cache_free_deferred(id, p);
        }
        alloc->quiesce();  // merge-on-quiesce records the ages
    }
    m.stop();

    EXPECT_GT(count(HistId::kDeferredAgeNs), 0u)
        << "defer->reclaim stamps did not reach the age histogram";
    EXPECT_GT(count(HistId::kReaderSectionNs), 0u)
        << "read-side sections did not reach the section histogram";
}

// ---------------------------------------------------------------------
// MemorySampler adapter (fig03's probe, now one telemetry probe).
// ---------------------------------------------------------------------

TEST(MemorySamplerAdapter, ProducesMonotoneTimeline)
{
    std::atomic<std::uint64_t> v{42};
    MemorySampler sampler([&v] { return v.load(); },
                          std::chrono::milliseconds(1));
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    v.store(99);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sampler.stop();

    auto samples = sampler.samples();
    ASSERT_GE(samples.size(), 3u);
    EXPECT_GE(samples.front().elapsed_ms, 0.0);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_LE(samples[i - 1].elapsed_ms, samples[i].elapsed_ms);
    EXPECT_EQ(samples.front().value, 42u);
    EXPECT_EQ(samples.back().value, 99u);
}

// ---------------------------------------------------------------------
// prudstat renderer.
// ---------------------------------------------------------------------

TEST(Prudstat, HumanizeIsExactBelowTenThousand)
{
    EXPECT_EQ(humanize(0), "0");
    EXPECT_EQ(humanize(831), "831");
    EXPECT_EQ(humanize(9999), "9999");
}

TEST(Prudstat, HumanizeScalesByPowersOf1024)
{
    EXPECT_EQ(humanize(10240), "10.0K");
    EXPECT_EQ(humanize(512 * 1024), "512K");
    EXPECT_EQ(humanize(5ull << 30), "5120M");
}

TEST(Prudstat, RendersHeaderAndAlignedRows)
{
    Monitor m;
    std::atomic<std::uint64_t> v{1000};
    m.add_probe("alloc.latent_bytes", "bytes", [&v] { return v.load(); });
    m.add_probe("rcu.grace_periods", "count", [] { return 7ull; });
    m.sample_at(1'000'000);

    PrudstatView view(m);
    std::ostringstream os;
    view.render(os);
    v.store(2'000'000);
    m.sample_at(2'000'000);
    view.render(os);
    EXPECT_EQ(view.rows(), 2u);

    std::string out = os.str();
    // Header labels are probe-name tails; values humanize.
    EXPECT_NE(out.find("latent_bytes"), std::string::npos);
    EXPECT_NE(out.find("grace_period"), std::string::npos);
    EXPECT_NE(out.find("1000"), std::string::npos);
    EXPECT_NE(out.find("1953K"), std::string::npos);

    // Header appears once in the first kHeaderInterval rows.
    auto first = out.find("latent_bytes");
    EXPECT_EQ(out.find("latent_bytes", first + 1), std::string::npos);
}

}  // namespace
}  // namespace prudence::telemetry
