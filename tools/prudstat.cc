/**
 * @file
 * prudstat — vmstat/slabtop-style console view of a live Prudence (or
 * baseline SLUB) allocator (DESIGN.md §12).
 *
 * Like vmstat, it prints one row per interval: per-layer occupancy
 * (latent objects/bytes, buddy free pages and per-order headroom,
 * PCP-cached pages), RCU state (grace periods, last GP latency,
 * active readers, baseline callback backlog) and the registry-derived
 * deferred-age / reader-section summaries — every column a telemetry
 * probe, humanized to fit a terminal.
 *
 * The allocator under observation is in-process: prudstat drives a
 * built-in RCU churn workload (alloc → publish → defer-free, plus
 * read-side sections) so every column moves. To watch a *torture* run
 * instead, use `prudtorture --prudstat`, which renders this same view
 * over the torture allocator.
 *
 * Usage (vmstat-style positionals):
 *   prudstat [interval_ms [count]]
 *   prudstat --allocator=slub --threads=4 200 50
 */
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/allocator_factory.h"
#include "rcu/rcu_domain.h"
#include "telemetry/monitor.h"
#include "telemetry/prudstat.h"

namespace {

using namespace prudence;

struct Options
{
    std::uint64_t interval_ms = 500;
    std::uint64_t count = 20;  ///< rows to print (0 = forever)
    std::string allocator = "prudence";
    unsigned threads = 2;
    std::size_t arena_mb = 32;
};

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] [interval_ms [count]]\n"
                 "  --allocator=KIND   prudence | slub "
                 "(default prudence)\n"
                 "  --threads=N        churn worker threads "
                 "(default 2)\n"
                 "  --arena-mb=N       simulated physical memory "
                 "(default 32)\n"
                 "  interval_ms        row interval (default 500)\n"
                 "  count              rows to print, 0 = until "
                 "interrupted (default 20)\n",
                 argv0);
}

bool
parse_options(int argc, char** argv, Options& opt)
{
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--allocator=", 12) == 0) {
            opt.allocator = argv[i] + 12;
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            opt.threads =
                static_cast<unsigned>(std::atoi(argv[i] + 10));
        } else if (std::strncmp(argv[i], "--arena-mb=", 11) == 0) {
            opt.arena_mb =
                static_cast<std::size_t>(std::atoll(argv[i] + 11));
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            usage(argv[0]);
            return false;
        } else if (positional == 0) {
            opt.interval_ms = std::strtoull(argv[i], nullptr, 10);
            ++positional;
        } else if (positional == 1) {
            opt.count = std::strtoull(argv[i], nullptr, 10);
            ++positional;
        } else {
            usage(argv[0]);
            return false;
        }
    }
    if (opt.allocator != "prudence" && opt.allocator != "slub") {
        usage(argv[0]);
        return false;
    }
    if (opt.interval_ms == 0)
        opt.interval_ms = 1;
    if (opt.threads == 0)
        opt.threads = 1;
    return true;
}

/// Built-in churn: RCU update loop (alloc, publish, defer-free the
/// old version) with read-side sections, sized so the latent and
/// buddy columns visibly breathe at human timescales.
void
churn_main(Allocator& alloc, RcuDomain& domain, CacheId cache,
           std::atomic<bool>& stop, unsigned id)
{
    std::mt19937_64 rng(0x9E3779B97F4A7C15ULL + id);
    constexpr std::size_t kSlots = 256;
    std::vector<void*> slots(kSlots, nullptr);
    std::uniform_int_distribution<std::size_t> pick(0, kSlots - 1);
    // Read-side loads land here, so the compiler keeps them.
    [[maybe_unused]] volatile std::uint64_t sink = 0;

    while (!stop.load(std::memory_order_relaxed)) {
        for (int burst = 0; burst < 64; ++burst) {
            void* obj = alloc.cache_alloc(cache);
            if (obj == nullptr)
                break;
            std::memset(obj, 0x5A, 64);
            std::size_t s = pick(rng);
            if (slots[s] != nullptr)
                alloc.cache_free_deferred(cache, slots[s]);
            slots[s] = obj;
        }
        {
            RcuReadGuard guard(domain);
            for (int i = 0; i < 32; ++i) {
                void* p = slots[pick(rng)];
                if (p != nullptr) {
                    std::uint64_t word = 0;
                    std::memcpy(&word, p, sizeof(word));
                    sink = word;
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (void* p : slots)
        if (p != nullptr)
            alloc.cache_free(cache, p);
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse_options(argc, argv, opt))
        return 2;

    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds(500);
    RcuDomain domain(rcfg);

    std::unique_ptr<Allocator> alloc;
    if (opt.allocator == "slub") {
        SlubConfig cfg;
        cfg.arena_bytes = opt.arena_mb << 20;
        alloc = make_slub_allocator(domain, cfg);
    } else {
        PrudenceConfig cfg;
        cfg.arena_bytes = opt.arena_mb << 20;
        alloc = make_prudence_allocator(domain, cfg);
    }
    CacheId cache = alloc->create_cache("prudstat.obj", 512);

    telemetry::MonitorConfig mcfg;
    mcfg.period = std::chrono::microseconds(opt.interval_ms * 1000);
    telemetry::Monitor monitor(mcfg);
    {
        telemetry::ProbeGroup probes(monitor);
        alloc->register_telemetry_probes(probes);
        domain.register_telemetry_probes(probes);
        telemetry::add_registry_probes(probes);
        telemetry::add_rss_probe(probes);
        monitor.start();

        std::printf("prudstat: allocator=%s arena=%zuMB threads=%u "
                    "interval=%" PRIu64 "ms%s\n",
                    alloc->kind(), opt.arena_mb, opt.threads,
                    opt.interval_ms,
                    opt.count == 0 ? "" : " (bounded)");

        std::atomic<bool> stop{false};
        std::vector<std::thread> workers;
        for (unsigned i = 0; i < opt.threads; ++i)
            workers.emplace_back([&alloc, &domain, cache, &stop, i] {
                churn_main(*alloc, domain, cache, stop, i);
            });

        telemetry::PrudstatView view(monitor);
        while (opt.count == 0 || view.rows() < opt.count) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opt.interval_ms));
            view.render(std::cout);
        }

        stop.store(true, std::memory_order_relaxed);
        for (auto& w : workers)
            w.join();
        monitor.stop();
    }  // probe closures die before the allocator

    alloc->quiesce();
    return 0;
}
