/**
 * @file
 * Ablation bench: the individual contribution of each Prudence
 * optimization (DESIGN.md §3.5). Not a paper figure — it quantifies
 * the design choices §4.1/§4.2 claim matter, by disabling them one
 * at a time and re-running (a) the Figure 6 micro loop and (b) the
 * Postmark model.
 */
#include <chrono>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "api/allocator_factory.h"
#include "bench/bench_common.h"
#include "rcu/rcu_domain.h"
#include "workload/benchmarks.h"
#include "workload/engine.h"

namespace {

using namespace prudence;

double
micro_pairs_per_second(const PrudenceConfig& base,
                       std::uint64_t pairs_per_thread)
{
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{200};
    RcuDomain rcu(rcfg);
    PrudenceConfig cfg = base;
    cfg.arena_bytes = std::size_t{1} << 30;
    cfg.cpus = 8;
    auto alloc = make_prudence_allocator(rcu, cfg);

    std::vector<std::thread> workers;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < 8; ++t) {
        workers.emplace_back([&alloc, pairs_per_thread] {
            for (std::uint64_t i = 0; i < pairs_per_thread; ++i) {
                void* p = alloc->kmalloc(512);
                if (p != nullptr)
                    alloc->kfree_deferred(p);
            }
        });
    }
    for (auto& w : workers)
        w.join();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    alloc->quiesce();
    return seconds > 0
        ? static_cast<double>(pairs_per_thread) * 8 / seconds
        : 0.0;
}

struct WorkloadNumbers
{
    double ops_per_second = 0.0;
    std::uint64_t object_churns = 0;
    std::uint64_t slab_churns = 0;
};

WorkloadNumbers
postmark_numbers(const PrudenceConfig& base, double scale)
{
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{200};
    RcuDomain rcu(rcfg);
    PrudenceConfig cfg = base;
    cfg.arena_bytes = std::size_t{1} << 30;
    cfg.cpus = 8;
    auto alloc = make_prudence_allocator(rcu, cfg);
    WorkloadResult r = run_workload(*alloc, postmark_spec(scale), 1);
    WorkloadNumbers n;
    n.ops_per_second = r.ops_per_second;
    for (const auto& s : r.caches) {
        n.object_churns += s.object_cache_churns();
        n.slab_churns += s.slab_churns();
    }
    return n;
}

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TelemetrySession telemetry_session(argc, argv);
    double scale = prudence_bench::run_scale(argc, argv);
    auto pairs = static_cast<std::uint64_t>(100000.0 * scale);
    if (pairs < 1000)
        pairs = 1000;
    double wl_scale = 0.3 * scale;

    struct Variant
    {
        const char* name;
        std::function<void(PrudenceConfig&)> tweak;
    };
    const Variant variants[] = {
        {"full (all optimizations)", [](PrudenceConfig&) {}},
        {"-merge_on_alloc",
         [](PrudenceConfig& c) { c.merge_on_alloc = false; }},
        {"-partial_refill",
         [](PrudenceConfig& c) { c.partial_refill = false; }},
        {"-sized_flush",
         [](PrudenceConfig& c) { c.sized_flush = false; }},
        {"-idle_preflush",
         [](PrudenceConfig& c) { c.idle_preflush = false; }},
        {"-slab_premove",
         [](PrudenceConfig& c) { c.slab_premove = false; }},
    };

    std::cout << "# Ablation: each Prudence optimization disabled "
                 "individually\n";
    std::cout << "# micro = Fig.6-style 512B kmalloc/kfree_deferred "
                 "pairs/s; postmark = model ops/s + churn pairs\n";
    std::cout << std::left << std::setw(28) << "variant" << std::right
              << std::setw(16) << "micro pairs/s" << std::setw(14)
              << "postmark op/s" << std::setw(12) << "obj churns"
              << std::setw(12) << "slab churns" << "\n";

    for (const Variant& v : variants) {
        PrudenceConfig cfg;
        v.tweak(cfg);
        double micro = micro_pairs_per_second(cfg, pairs);
        WorkloadNumbers wl = postmark_numbers(cfg, wl_scale);
        std::cout << std::left << std::setw(28) << v.name
                  << std::right << std::fixed << std::setprecision(0)
                  << std::setw(16) << micro << std::setw(14)
                  << wl.ops_per_second << std::setw(12)
                  << wl.object_churns << std::setw(12)
                  << wl.slab_churns << "\n";
    }
    std::cout << "# expectation: the full configuration is best or "
                 "tied on every column\n";
    return 0;
}
