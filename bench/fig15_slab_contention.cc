/**
 * @file
 * Figure 15 (repo-local experiment): per-CPU slab-lock contention
 * under multi-threaded object churn, with and without the lock-free
 * per-CPU layer (DESIGN.md §14).
 *
 * The fig14 story one layer up: PR 3 made the object fast path mostly
 * lock-free, PR 6 took the buddy lock out of slab grow/shrink — what
 * remains is the per-CPU spinlock every magazine refill, flush and
 * deferral spill serializes on. The lock-free layer replaces those
 * exchanges with single-CAS depot pushes/pops, so the per-CPU lock
 * should all but vanish from the hot path.
 *
 * N threads churn cache_alloc / cache_free / cache_free_deferred over
 * a shared cache (bursts that cross magazine boundaries, the pattern
 * that forces exchanges), and the bench reports per thread count and
 * per config (lock-free on vs off):
 *
 *   ns_per_op    wall time per operation, per thread
 *   lock_per_op  per-CPU spinlock acquisitions per operation
 *   depot_per_op depot CAS exchanges per operation (0 on the off leg)
 *
 * The paper-facing gate: lock_per_op ~ 0 on the on leg at 8 threads,
 * with ns_per_op no worse at 1 thread and better at 8.
 *
 * Environment: PRUDENCE_MAGAZINE_CAPACITY overrides the magazine
 * depth of both legs (default 32).
 */
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/prudence_allocator.h"
#include "rcu/rcu_domain.h"

namespace {

using namespace prudence;

struct RunResult
{
    double ns_per_op = 0.0;
    double lock_per_op = 0.0;
    double depot_per_op = 0.0;
    // Attributed residual-miss counters (raw sums over caches).
    std::uint64_t miss_cold = 0;
    std::uint64_t miss_gp_pending = 0;
};

/// One churn run: @p threads workers, each performing @p ops
/// operations (alloc-burst / free-burst / defer mix) against a fresh
/// allocator with the lock-free layer @p lockfree. @p defer_heavy
/// inverts the defer mix (75% deferred instead of 25%) — the regime
/// where refills race the prudence window.
RunResult
run_churn(unsigned threads, std::size_t ops, std::size_t magazines,
          bool lockfree, bool defer_heavy = false)
{
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{200};
    RcuDomain rcu(rcfg);

    PrudenceConfig cfg;
    cfg.arena_bytes = std::size_t{256} << 20;
    cfg.cpus = threads;
    cfg.magazine_capacity = magazines;
    cfg.lockfree_pcpu = lockfree;
    PrudenceAllocator alloc(rcu, cfg);
    CacheId cache = alloc.create_cache("fig15.obj", 128);

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&alloc, &go, cache, ops, t,
                              defer_heavy] {
            while (!go.load(std::memory_order_acquire)) {
            }
            // Bursts sized past the magazine capacity so every round
            // crosses a refill/flush boundary — the exchange paths
            // are the contended ones, not the in-magazine hits.
            constexpr std::size_t kBurst = 48;
            void* held[kBurst] = {};
            std::size_t done = 0;
            unsigned state = t * 2654435761u + 1;
            while (done < ops) {
                for (std::size_t i = 0; i < kBurst && done < ops;
                     ++i, ++done) {
                    held[i] = alloc.cache_alloc(cache);
                    if (held[i] != nullptr)
                        std::memset(held[i], static_cast<int>(t), 8);
                }
                for (std::size_t i = 0; i < kBurst && done < ops;
                     ++i, ++done) {
                    if (held[i] == nullptr)
                        continue;
                    state = state * 1664525u + 1013904223u;
                    bool defer = ((state >> 16) % 4 == 0) != defer_heavy;
                    if (defer)
                        alloc.cache_free_deferred(cache, held[i]);
                    else
                        alloc.cache_free(cache, held[i]);
                    held[i] = nullptr;
                }
            }
            for (void* p : held) {
                if (p != nullptr)
                    alloc.cache_free(cache, p);
            }
            alloc.drain_thread();
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers)
        w.join();
    auto t1 = std::chrono::steady_clock::now();

    alloc.quiesce();
    std::uint64_t locks = 0, exchanges = 0;
    RunResult r;
    for (const auto& s : alloc.snapshots()) {
        locks += s.pcpu_lock_acquisitions;
        exchanges += s.depot_exchanges;
        r.miss_cold += s.depot_miss_cold;
        r.miss_gp_pending += s.depot_miss_gp_pending;
    }

    double total_ops = static_cast<double>(ops) * threads;
    double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    r.ns_per_op = wall_ns * threads / total_ops;
    r.lock_per_op = static_cast<double>(locks) / total_ops;
    r.depot_per_op = static_cast<double>(exchanges) / total_ops;
    return r;
}

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TraceSession trace_session(argc, argv);
    prudence_bench::TelemetrySession telemetry_session(argc, argv);
    double scale = prudence_bench::run_scale(argc, argv);
    std::size_t magazines = prudence_bench::magazine_capacity_env(32);
    if (magazines == 0)
        magazines = 32;  // both legs need magazines to exchange

    auto ops = static_cast<std::size_t>(400000.0 * scale);
    if (ops < 2000)
        ops = 2000;

    std::printf("# Figure 15: per-CPU slab-lock contention, "
                "lock-free layer on vs off\n");
    std::printf("# %zu ops per thread, 128 B objects, magazine "
                "capacity %zu\n",
                ops, magazines);
    std::printf("%-8s %-9s %12s %14s %14s\n", "threads", "lockfree",
                "ns_per_op", "lock_per_op", "depot_per_op");

    double on8_lock = 0.0, off8_lock = 0.0;
    double on8_ns = 0.0, off8_ns = 0.0;
    RunResult on8;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        RunResult on = run_churn(threads, ops, magazines, true);
        RunResult off = run_churn(threads, ops, magazines, false);
        std::printf("%-8u %-9s %12.1f %14.4f %14.4f\n", threads, "on",
                    on.ns_per_op, on.lock_per_op, on.depot_per_op);
        std::printf("%-8u %-9s %12.1f %14.4f %14.4f\n", threads, "off",
                    off.ns_per_op, off.lock_per_op, off.depot_per_op);
        if (threads == 8) {
            on8_lock = on.lock_per_op;
            off8_lock = off.lock_per_op;
            on8_ns = on.ns_per_op;
            off8_ns = off.ns_per_op;
            on8 = on;
        }
    }

    // Deferred-heavy mix (75% cache_free_deferred): the regime where
    // the full stack starves behind open grace periods. The "-heavy"
    // suffix keeps these rows out of the standard-leg parsers.
    RunResult heavy8;
    for (unsigned threads : {1u, 8u}) {
        RunResult on = run_churn(threads, ops, magazines, true,
                                 /*defer_heavy=*/true);
        RunResult off = run_churn(threads, ops, magazines, false,
                                  /*defer_heavy=*/true);
        std::printf("%-8u %-9s %12.1f %14.4f %14.4f\n", threads,
                    "on-heavy", on.ns_per_op, on.lock_per_op,
                    on.depot_per_op);
        std::printf("%-8u %-9s %12.1f %14.4f %14.4f\n", threads,
                    "off-heavy", off.ns_per_op, off.lock_per_op,
                    off.depot_per_op);
        if (threads == 8)
            heavy8 = on;
    }

    if (off8_lock > 0.0 && on8_ns > 0.0) {
        std::printf("# 8 threads: per-CPU lock acquisitions/op %.4f "
                    "-> %.4f, ns/op %.1f -> %.1f (%.2fx)\n",
                    off8_lock, on8_lock, off8_ns, on8_ns,
                    off8_ns / on8_ns);
    }
    std::printf("# 8 threads on: miss_cold=%llu miss_gp_pending=%llu\n",
                static_cast<unsigned long long>(on8.miss_cold),
                static_cast<unsigned long long>(on8.miss_gp_pending));
    std::printf("# 8 threads on-heavy: miss_cold=%llu "
                "miss_gp_pending=%llu\n",
                static_cast<unsigned long long>(heavy8.miss_cold),
                static_cast<unsigned long long>(heavy8.miss_gp_pending));
    return 0;
}
