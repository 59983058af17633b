/**
 * @file
 * Unit tests for the tracing layer: log2 histogram bucket boundaries,
 * trace-ring wraparound and drop accounting (including one ring per
 * writer thread, the production topology), the metrics registry's
 * phase-exchange snapshots, and the Chrome-trace/metrics JSON
 * exporters (validated with a small structural JSON parser).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "trace/exporter.h"
#include "trace/histogram.h"
#include "trace/metrics_registry.h"
#include "trace/trace_ring.h"
#include "trace/tracer.h"

namespace prudence::trace {
namespace {

using prudence::test::JsonChecker;

TEST(JsonChecker, SelfTest)
{
    for (const char* good :
         {"{}", "[]", "{\"a\":1}", "[1,2.5,-3e9]",
          "{\"a\":{\"b\":[true,false,null,\"s\\\"t\"]}}", "0.125"}) {
        std::string s(good);
        EXPECT_TRUE(JsonChecker(s).valid()) << good;
    }
    for (const char* bad :
         {"{", "{\"a\":}", "[1,]", "{\"a\" 1}", "nan", "{\"a\":1}x",
          "\"unterminated"}) {
        std::string s(bad);
        EXPECT_FALSE(JsonChecker(s).valid()) << bad;
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, BucketBoundariesAroundPowersOfTwo)
{
    // Bucket 0 is {0, 1}; bucket i >= 1 is [2^i, 2^(i+1) - 1]. The
    // 1-off values around each power of two are where an off-by-one
    // in bit_width indexing would land in the wrong bucket.
    EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
    EXPECT_EQ(LatencyHistogram::bucket_index(1), 0);
    for (int k = 1; k < 63; ++k) {
        std::uint64_t pow = std::uint64_t{1} << k;
        EXPECT_EQ(LatencyHistogram::bucket_index(pow - 1),
                  k == 1 ? 0 : k - 1)
            << "below 2^" << k;
        EXPECT_EQ(LatencyHistogram::bucket_index(pow), k)
            << "at 2^" << k;
        EXPECT_EQ(LatencyHistogram::bucket_index(pow + 1), k)
            << "above 2^" << k;
    }
    EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}), 63);
}

TEST(LatencyHistogram, BucketRangesTileTheDomain)
{
    // Buckets must cover [0, 2^64) contiguously with no gap/overlap.
    EXPECT_EQ(LatencyHistogram::bucket_lower(0), 0u);
    for (int i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
        EXPECT_EQ(LatencyHistogram::bucket_upper(i) + 1,
                  LatencyHistogram::bucket_lower(i + 1))
            << "bucket " << i;
        EXPECT_EQ(LatencyHistogram::bucket_index(
                      LatencyHistogram::bucket_lower(i)),
                  i);
        EXPECT_EQ(LatencyHistogram::bucket_index(
                      LatencyHistogram::bucket_upper(i)),
                  i);
    }
    EXPECT_EQ(LatencyHistogram::bucket_upper(63), ~std::uint64_t{0});
}

TEST(LatencyHistogram, SnapshotSummarizesAndResetDrains)
{
    LatencyHistogram h;
    for (std::uint64_t v : {100u, 200u, 300u, 400u, 10000u})
        h.record(v);

    HistogramSnapshot s = h.snapshot(/*reset=*/true);
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, 11000u);
    EXPECT_EQ(s.max, 10000u);
    EXPECT_DOUBLE_EQ(s.mean(), 2200.0);
    // Percentile estimates stay inside the recorded value range and
    // are monotone.
    EXPECT_GE(s.p50, 64.0);  // bucket_lower(bucket_index(100))
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
    EXPECT_LE(s.p99, s.p999);
    EXPECT_LE(s.p999, static_cast<double>(s.max));

    // reset=true drained every bucket: a second snapshot is empty.
    HistogramSnapshot empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.sum, 0u);
    EXPECT_EQ(empty.max, 0u);
    EXPECT_DOUBLE_EQ(empty.p99, 0.0);
    EXPECT_DOUBLE_EQ(empty.p999, 0.0);
}

TEST(LatencyHistogram, PercentilesNeverExceedTheObservedMax)
{
    // Regression: the old interpolation could report p99 > max for a
    // single sample mid-bucket (e.g. 1017.9 for one record of 1000).
    LatencyHistogram h;
    h.record(1000);
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.max, 1000u);
    // Within-bucket interpolation stays inside [bucket_lower, max].
    EXPECT_GE(s.p50, 512.0);
    EXPECT_LE(s.p50, 1000.0);
    // The tail estimates land exactly on the observed max.
    EXPECT_DOUBLE_EQ(s.p99, 1000.0);
    EXPECT_DOUBLE_EQ(s.p999, 1000.0);
}

TEST(LatencyHistogram, SingleValueAtBucketLowerBoundIsExact)
{
    // 1024 is bucket_lower(10): every interpolated estimate inside
    // that bucket is >= 1024 and clamps to the observed max, so all
    // percentiles are exact.
    LatencyHistogram h;
    h.record(1024);
    HistogramSnapshot s = h.snapshot();
    EXPECT_DOUBLE_EQ(s.p50, 1024.0);
    EXPECT_DOUBLE_EQ(s.p90, 1024.0);
    EXPECT_DOUBLE_EQ(s.p99, 1024.0);
    EXPECT_DOUBLE_EQ(s.p999, 1024.0);
}

TEST(LatencyHistogram, UniformRampPercentilesWithinBucketResolution)
{
    // Values 1..1000 once each: the true quantiles are known, and the
    // log2-bucket estimates must land within one bucket's width.
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, 1000u);
    EXPECT_EQ(s.max, 1000u);
    // True p50 = 500, inside bucket [256, 511].
    EXPECT_NEAR(s.p50, 500.0, 256.0);
    // True p99 = 990, inside bucket [512, 1023] but capped at max.
    EXPECT_NEAR(s.p99, 990.0, 512.0);
    EXPECT_LE(s.p99, 1000.0);
    // True p999 = 999; the estimate caps at the observed max.
    EXPECT_NEAR(s.p999, 999.0, 512.0);
    EXPECT_LE(s.p999, 1000.0);
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
    EXPECT_LE(s.p99, s.p999);
}

TEST(LatencyHistogram, RankOnBucketBoundaryStaysInLowerBucket)
{
    // 99 fast records and one extreme outlier: the p99 rank lands
    // exactly on the fast bucket's cumulative edge and must resolve
    // there (frac = 1 clamps to the bucket upper bound, not the next
    // bucket's range); only p999 may see the outlier.
    LatencyHistogram h;
    for (int i = 0; i < 99; ++i)
        h.record(10);
    h.record(1'000'000);
    HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, 100u);
    // p99 rank = 99 = the count of 10s: bucket [8, 15] upper bound.
    EXPECT_LE(s.p99, 15.0);
    EXPECT_GE(s.p99, 8.0);
    // p999 rank = 99.9 crosses into the outlier's bucket.
    EXPECT_GE(s.p999, 524288.0);  // bucket_lower for 1e6
    EXPECT_LE(s.p999, 1'000'000.0);
}

TEST(LatencyHistogram, ConcurrentRecordsAreLossless)
{
    LatencyHistogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<std::uint64_t>(t * 1000 + i));
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(h.count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(TraceRing(0).capacity(), 2u);
    EXPECT_EQ(TraceRing(1).capacity(), 2u);
    EXPECT_EQ(TraceRing(5).capacity(), 8u);
    EXPECT_EQ(TraceRing(64).capacity(), 64u);
}

TEST(TraceRing, FillsThenWrapsOverwritingOldest)
{
    TraceRing ring(8);
    auto make = [](std::uint64_t i) {
        TraceEvent e{};
        e.ts_ns = i;
        e.arg0 = i * 10;
        e.id = EventId::kCbEnqueue;
        return e;
    };

    for (std::uint64_t i = 0; i < 5; ++i)
        ring.push(make(i));
    EXPECT_EQ(ring.pushed(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.size(), 5u);

    for (std::uint64_t i = 5; i < 20; ++i)
        ring.push(make(i));
    EXPECT_EQ(ring.pushed(), 20u);
    EXPECT_EQ(ring.dropped(), 12u);  // 20 pushed - 8 retained
    EXPECT_EQ(ring.size(), 8u);

    // The newest window survives, oldest first.
    std::vector<TraceEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].ts_ns, 12 + i);
        EXPECT_EQ(events[i].arg0, (12 + i) * 10);
    }

    ring.clear();
    EXPECT_EQ(ring.pushed(), 0u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, ConcurrentWritersEachOwnARingDropsAreCounted)
{
    // Production topology: one ring per writer thread, merged after
    // the writers quiesce. Every push must be accounted for as either
    // retained or dropped, per ring and in aggregate.
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPushes = 50000;
    constexpr std::size_t kCapacity = 256;
    std::vector<std::unique_ptr<TraceRing>> rings;
    for (int t = 0; t < kWriters; ++t)
        rings.push_back(std::make_unique<TraceRing>(kCapacity));

    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&rings, t] {
            TraceRing& ring = *rings[static_cast<std::size_t>(t)];
            for (std::uint64_t i = 0; i < kPushes; ++i) {
                TraceEvent e{};
                e.ts_ns = i;
                e.arg0 = static_cast<std::uint64_t>(t);
                e.id = EventId::kAllocSpan;
                ring.push(e);
            }
        });
    }
    for (auto& w : writers)
        w.join();

    std::uint64_t retained = 0, dropped = 0;
    for (auto& ring : rings) {
        EXPECT_EQ(ring->pushed(), kPushes);
        EXPECT_EQ(ring->dropped(), kPushes - kCapacity);
        retained += ring->size();
        dropped += ring->dropped();

        // The retained window is the contiguous newest suffix of
        // this writer's stream.
        std::vector<TraceEvent> events = ring->snapshot();
        ASSERT_EQ(events.size(), kCapacity);
        for (std::size_t i = 0; i < events.size(); ++i)
            EXPECT_EQ(events[i].ts_ns, kPushes - kCapacity + i);
    }
    EXPECT_EQ(retained + dropped,
              static_cast<std::uint64_t>(kWriters) * kPushes);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, SnapshotWithResetStartsANewPhase)
{
    MetricsRegistry& reg = MetricsRegistry::instance();
    reg.reset_all();
    reg.counter("test.phase_counter").add(7);
    reg.histogram(HistId::kPrudenceAllocNs).record(512);

    auto phase1 = reg.snapshot_all(/*reset=*/true);
    bool saw_counter = false, saw_hist = false;
    for (const MetricSnapshot& m : phase1) {
        if (m.name == "test.phase_counter") {
            saw_counter = true;
            EXPECT_EQ(m.value, 7u);
        }
        if (m.name == hist_name(HistId::kPrudenceAllocNs)) {
            saw_hist = true;
            EXPECT_EQ(m.hist.count, 1u);
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_hist);

    // The reset snapshot drained phase 1; phase 2 starts at zero.
    for (const MetricSnapshot& m : reg.snapshot_all()) {
        if (m.name == "test.phase_counter") {
            EXPECT_EQ(m.value, 0u);
        }
        if (m.name == hist_name(HistId::kPrudenceAllocNs)) {
            EXPECT_EQ(m.hist.count, 0u);
        }
    }
}

TEST(MetricsRegistry, EveryWellKnownHistogramHasAName)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(HistId::kCount); ++i) {
        const char* name = hist_name(static_cast<HistId>(i));
        ASSERT_NE(name, nullptr) << "HistId " << i;
        EXPECT_GT(std::string(name).size(), 0u) << "HistId " << i;
    }
}

TEST(EventInfo, EveryEventHasNameCategoryAndPhase)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(EventId::kMaxEvent); ++i) {
        const EventInfo& info =
            event_info(static_cast<EventId>(i));
        ASSERT_NE(info.name, nullptr) << "EventId " << i;
        ASSERT_NE(info.category, nullptr) << "EventId " << i;
        EXPECT_TRUE(info.phase == 'X' || info.phase == 'i' ||
                    info.phase == 'C')
            << "EventId " << i << " phase " << info.phase;
    }
}

// ---------------------------------------------------------------------
// Tracer sessions + exporter. These use the direct runtime API (not
// the PRUDENCE_TRACE_* macros) to exercise the session machinery.
// ---------------------------------------------------------------------

TEST(Tracer, DisabledTracepointsRecordNothing)
{
    stop();
    MetricsRegistry::instance().reset_all();
    std::uint64_t before = local_ring().pushed();
    {
        TimerSpan span(HistId::kPrudenceAllocNs,
                       EventId::kAllocSpan);
        EXPECT_FALSE(span.armed());
        span.set_args(64);
    }
    emit(EventId::kGpStart, 1);  // emit() is itself gated
    EXPECT_EQ(local_ring().pushed(), before);
    EXPECT_EQ(MetricsRegistry::instance()
                  .histogram(HistId::kPrudenceAllocNs)
                  .snapshot()
                  .count,
              0u);
}

TEST(Tracer, SessionRecordsSpansAndInstants)
{
    start(/*ring_capacity=*/256);
    ASSERT_TRUE(enabled());

    emit(EventId::kGpStart, /*target_epoch=*/3);
    {
        TimerSpan span(HistId::kPrudenceAllocNs,
                       EventId::kAllocSpan);
        EXPECT_TRUE(span.armed());
        span.set_args(128);
    }
    std::thread worker([] {
        emit(EventId::kLatentEnter, 0xabcdef);
        emit_span(EventId::kCbBatchDrain, now_ns(), /*count=*/5,
                  /*cpu=*/0);
    });
    worker.join();
    stop();
    EXPECT_FALSE(enabled());

    EXPECT_GE(total_recorded(), 4u);
    HistogramSnapshot alloc = MetricsRegistry::instance()
                                  .histogram(HistId::kPrudenceAllocNs)
                                  .snapshot();
    EXPECT_EQ(alloc.count, 1u);
    EXPECT_GT(alloc.max, 0u);
}

TEST(Exporter, ChromeTraceIsValidJsonWithExpectedEvents)
{
    start(/*ring_capacity=*/64);
    emit(EventId::kGpStart, 1);
    emit_span(EventId::kGpSpan, now_ns(), /*completed_epoch=*/1);
    emit(EventId::kCbEnqueue, /*epoch=*/2, /*cpu=*/0);
    emit(EventId::kBytesInUse, 4096);
    std::thread worker([] { emit(EventId::kLatentEnter, 0x1234); });
    worker.join();
    stop();

    std::ostringstream os;
    write_chrome_trace(os);
    std::string json = os.str();

    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    for (const char* name :
         {"gp_start", "grace_period", "cb_enqueue", "bytes_in_use",
          "latent_enter", "thread_name"}) {
        EXPECT_NE(json.find('"' + std::string(name) + '"'),
                  std::string::npos)
            << name;
    }
    // Counter events use Chrome phase "C", spans "X".
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Exporter, DroppedEventsSurfaceAsMarkers)
{
    start(/*ring_capacity=*/4);
    // Emit from a fresh thread: its ring is created under the small
    // capacity (start() does not shrink pre-existing rings).
    std::thread writer([] {
        for (int i = 0; i < 64; ++i)
            emit(EventId::kBuddySplit, static_cast<std::uint64_t>(i));
    });
    writer.join();
    stop();
    EXPECT_GT(total_dropped(), 0u);

    std::ostringstream os;
    write_chrome_trace(os);
    std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"events_dropped\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":"), std::string::npos);
}

TEST(Exporter, MetricsJsonIsValidAndSkipsIdleHistograms)
{
    start();
    MetricsRegistry& reg = MetricsRegistry::instance();
    reg.histogram(HistId::kSlubAllocNs).record(1000);
    reg.histogram(HistId::kSlubAllocNs).record(3000);
    reg.counter("test.export_counter").add(11);
    reg.gauge("test.export_gauge").add(5);
    stop();

    std::ostringstream os;
    write_metrics_json(os);
    std::string json = os.str();

    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find('"' +
                        std::string(hist_name(HistId::kSlubAllocNs)) +
                        '"'),
              std::string::npos);
    EXPECT_NE(json.find("\"test.export_counter\":11"),
              std::string::npos);
    EXPECT_NE(json.find("\"test.export_gauge\""), std::string::npos);
    // Histograms that never recorded stay out of the file.
    EXPECT_EQ(json.find(std::string(hist_name(HistId::kOomWaitNs))),
              std::string::npos);
}

TEST(Exporter, StartClearsPreviousSession)
{
    start(/*ring_capacity=*/64);
    emit(EventId::kSlabCreate, 0x1, 64);
    stop();
    EXPECT_GE(total_recorded(), 1u);

    start(/*ring_capacity=*/64);
    stop();
    EXPECT_EQ(total_recorded(), 0u);
    EXPECT_EQ(total_dropped(), 0u);
}

}  // namespace
}  // namespace prudence::trace
