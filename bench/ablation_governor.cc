/**
 * @file
 * Governor ablation: static knobs vs. the adaptive reclamation
 * governor (DESIGN.md §13) under bursty defer-heavy churn.
 *
 * Both legs run the identical workload with the identical static
 * configuration — an operator-tuned 20 ms background grace period,
 * sized for steady traffic. The bursty defer storm makes that knob
 * wrong: deferred objects pile up for a full GP interval and the
 * footprint balloons. The governed leg layers the stock scheme list
 * on top: when latent bytes cross the watermark, the governor
 * expedites grace periods (and widens callback batches / shrinks
 * admission under deeper pressure), bounding the pile-up without
 * anyone re-tuning the static knob.
 *
 * Reported per leg: throughput, peak buddy footprint, deferred-age
 * p99 and reader-section p99 (per-leg registry drain), plus the
 * governor's fire/effect counters. The acceptance bar: the governed
 * leg's peak footprint at least 20% below the static leg's, with
 * throughput within noise.
 *
 * Rows are machine-parseable (scripts/run_bench.sh folds them into
 * BENCH_<sha>.json): `leg <name> pairs_s <v> peak_mib <v>
 * defer_p99_ms <v> reader_p99_us <v>`.
 */
#include <atomic>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/prudence_allocator.h"
#include "governor/governor.h"
#include "rcu/rcu_domain.h"
#include "telemetry/monitor.h"
#include "trace/metrics_registry.h"

namespace {

using namespace prudence;

struct Outcome
{
    double pairs_per_second = 0.0;
    std::uint64_t peak_mib = 0;
    double defer_p99_ms = 0.0;
    double reader_p99_us = 0.0;
    std::uint64_t failures = 0;
    governor::GovernorStats gov;
};

double
hist_p99(const std::vector<trace::MetricSnapshot>& metrics,
         const std::string& name)
{
    for (const auto& m : metrics) {
        if (m.name == name &&
            m.kind == trace::MetricSnapshot::Kind::kHistogram)
            return m.hist.p99;
    }
    return 0.0;
}

Outcome
run_leg(bool governed, std::uint64_t bursts_per_thread)
{
    // Per-leg histogram window: drain everything recorded so far so
    // the p99s below belong to this leg alone.
    trace::MetricsRegistry::instance().snapshot_all(/*reset=*/true);

    // The deliberately mis-tuned static knob: a 20 ms background
    // grace period (fine for steady traffic, wrong for bursts).
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::milliseconds{20};
    RcuDomain rcu(rcfg);

    constexpr unsigned kThreads = 4;
    PrudenceConfig cfg;
    cfg.arena_bytes = std::size_t{512} << 20;
    cfg.cpus = kThreads;
    PrudenceAllocator alloc(rcu, cfg);
    CacheId id = alloc.create_cache("governor_ablation", 512);

    // Private monitor: the governor's sensor, independent of any
    // --telemetry session. 1 ms sampling so burst onsets are seen
    // promptly.
    telemetry::MonitorConfig mcfg;
    mcfg.period = std::chrono::milliseconds{1};
    telemetry::Monitor monitor(mcfg);
    telemetry::ProbeGroup group(monitor);
    alloc.register_telemetry_probes(group);
    telemetry::add_registry_probes(group);
    monitor.start();

    governor::AllocatorActuators acts(rcu, alloc);
    governor::DefaultSchemeTuning tuning;
    tuning.latent_bytes_high = 2u << 20;  // expedite past 2 MiB latent
    tuning.hold = std::chrono::milliseconds{2};
    tuning.cooldown = std::chrono::milliseconds{10};
    governor::GovernorConfig gcfg;
    gcfg.period = std::chrono::milliseconds{1};
    gcfg.schemes = governor::default_schemes(tuning);
    governor::ReclamationGovernor gov(monitor, acts, gcfg);
    if (governed) {
        alloc.set_pressure_listener(
            [&gov](int rung) { gov.note_oom_ladder(rung); });
        gov.start();
    }

    // Bursty defer-heavy churn at a FIXED offered load: every thread
    // fires a burst on an absolute deadline grid (sleep_until, so a
    // slow leg doesn't quietly shed load), allocates a slug of
    // objects and defers them all. Pacing both legs identically is
    // what makes the peak-footprint comparison meaningful — peak is
    // inflow_rate x reclamation_latency, and only the latency may
    // differ between the legs.
    constexpr std::uint64_t kBurstPairs = 2000;
    constexpr auto kBurstPeriod = std::chrono::milliseconds{8};
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> threads;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<void*> slug;
            slug.reserve(kBurstPairs);
            // Stagger thread phases so bursts overlap but don't
            // align perfectly.
            auto next = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds{t * 2};
            for (std::uint64_t b = 0; b < bursts_per_thread; ++b) {
                std::this_thread::sleep_until(next);
                next += kBurstPeriod;
                for (std::uint64_t i = 0; i < kBurstPairs; ++i) {
                    // A short reader section every few pairs keeps
                    // the reader-duration probe live and makes the
                    // expedited GP actually wait on readers.
                    if ((i & 63) == 0) {
                        RcuReadGuard guard(rcu);
                        void* p = alloc.cache_alloc(id);
                        if (p != nullptr)
                            slug.push_back(p);
                        else
                            failures.fetch_add(1);
                        continue;
                    }
                    void* p = alloc.cache_alloc(id);
                    if (p != nullptr)
                        slug.push_back(p);
                    else
                        failures.fetch_add(1);
                }
                for (void* p : slug)
                    alloc.cache_free_deferred(id, p);
                slug.clear();
                alloc.drain_thread();
            }
        });
    }
    for (auto& th : threads)
        th.join();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    gov.stop();
    monitor.stop();

    Outcome out;
    const std::uint64_t pairs =
        bursts_per_thread * kBurstPairs * kThreads;
    out.pairs_per_second =
        seconds > 0 ? static_cast<double>(pairs) / seconds : 0.0;
    out.peak_mib =
        static_cast<std::uint64_t>(
            alloc.page_allocator().stats().peak_pages_in_use) *
            kPageSize >>
        20;
    auto metrics =
        trace::MetricsRegistry::instance().snapshot_all(false);
    out.defer_p99_ms =
        hist_p99(metrics, "alloc.deferred_age_ns") / 1e6;
    out.reader_p99_us =
        hist_p99(metrics, "rcu.reader_section_ns") / 1e3;
    out.failures = failures.load();
    out.gov = gov.stats();
    alloc.quiesce();
    return out;
}

void
print_row(const char* leg, const Outcome& o)
{
    std::cout << "leg " << std::left << std::setw(10) << leg
              << std::right << std::fixed << " pairs_s "
              << std::setprecision(0) << std::setw(10)
              << o.pairs_per_second << " peak_mib " << std::setw(6)
              << o.peak_mib << " defer_p99_ms " << std::setprecision(2)
              << std::setw(8) << o.defer_p99_ms << " reader_p99_us "
              << std::setw(8) << o.reader_p99_us << "\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TraceSession trace_session(argc, argv);
    prudence_bench::TelemetrySession telemetry_session(argc, argv);
    double scale = prudence_bench::run_scale(argc, argv);
    auto bursts = static_cast<std::uint64_t>(60.0 * scale);
    if (bursts < 5)
        bursts = 5;

    std::cout << "# Governor ablation: static knobs vs. adaptive "
                 "reclamation governor\n"
                 "# identical workload + identical static config "
                 "(20 ms GP); the governed leg adds\n"
                 "# the stock scheme list (expedite on latent bytes, "
                 "widen batches on deferred age,\n"
                 "# shrink admission + trim PCP on low headroom)\n"
                 "# expectation: governed peak footprint >= 20% below "
                 "static, throughput within noise\n";

    Outcome stat = run_leg(/*governed=*/false, bursts);
    Outcome gov = run_leg(/*governed=*/true, bursts);

    print_row("static", stat);
    print_row("governed", gov);

    const double reduction =
        stat.peak_mib > 0
            ? 100.0 *
                  (1.0 - static_cast<double>(gov.peak_mib) /
                             static_cast<double>(stat.peak_mib))
            : 0.0;
    std::cout << "# governed peak " << std::fixed
              << std::setprecision(1) << reduction
              << "% below static\n";
    std::cout << "# governor: evaluations=" << gov.gov.evaluations
              << " fires=" << gov.gov.fires
              << " effects=" << gov.gov.effects
              << " refusals=" << gov.gov.refusals
              << " level_transitions=" << gov.gov.level_transitions
              << "\n";
    if (stat.failures + gov.failures > 0) {
        std::cout << "# note: alloc failures static=" << stat.failures
                  << " governed=" << gov.failures << "\n";
    }
    return 0;
}
