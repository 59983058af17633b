/**
 * @file
 * schedfuzz — deterministic schedule fuzzing driver (DESIGN.md §11).
 *
 * Sweeps seeds through the sim scheduler: each seed is one
 * reproducible perturbation schedule over the instrumented race
 * windows, checked against the sequential reference model
 * (sim::ModelChecker) plus the allocator's own accounting identities
 * and the buddy allocator's free+cached+used == capacity integrity
 * walk at quiesce.
 *
 * On a failure the driver shrinks the yield-site mask to a minimal
 * still-failing subset (greedy delta debugging) and prints a replay
 * command line.
 *
 *   schedfuzz --seeds=200                 # sweep
 *   schedfuzz --seed=17 --sites=mag_defer_buffer,gp_publish
 *   schedfuzz --self-test                 # prove the fuzzer works:
 *       arms the stale-spill-tag bug, demands a find within the seed
 *       budget, replays the reported seed, shrinks it, demands a
 *       clean sweep with the bug disarmed, then repeats the find for
 *       the unprotected-depot-pop bug on the lock-free leg.
 */
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/prudence_allocator.h"
#include "rcu/rcu_domain.h"
#include "sim/ref_model.h"
#include "sim/sim.h"

namespace {

using namespace prudence;

struct Options
{
    std::uint64_t seeds = 20;       // sweep width
    std::uint64_t seed_base = 1;    // first seed of the sweep
    std::uint64_t seed = 0;         // != 0: replay this single seed
    std::uint32_t sites = sim::all_yields();
    sim::BugId bug = sim::BugId::kNone;
    unsigned updaters = 2;
    unsigned readers = 2;
    std::uint64_t ops = 300;        // deferrals per updater
    std::size_t magazine_capacity = 16;
    std::size_t pcp_high_watermark = 16;
    /// Lock-free per-CPU caches + depot (DESIGN.md §14): -1 = build
    /// default, 0 = legacy spinlock leg, 1 = lock-free leg.
    int lockfree_pcpu = -1;
    std::uint64_t base_delay_ns = 50'000;
    bool self_test = false;
    bool shrink = true;
    std::string report_path;
};

const char*
flag_value(const char* arg, const char* name)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

std::uint32_t
parse_sites(const char* list)
{
    std::uint32_t mask = 0;
    std::string s(list);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::string name = s.substr(pos, comma - pos);
        sim::YieldId id = sim::yield_from_name(name.c_str());
        if (id == sim::YieldId::kNone) {
            std::fprintf(stderr, "schedfuzz: unknown yield site '%s'\n",
                         name.c_str());
            std::exit(2);
        }
        mask |= sim::yield_bit(id);
        pos = comma + 1;
    }
    return mask;
}

std::string
sites_to_string(std::uint32_t mask)
{
    std::string out;
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(sim::YieldId::kMaxYield); ++i) {
        auto id = static_cast<sim::YieldId>(i);
        if (mask & sim::yield_bit(id)) {
            if (!out.empty())
                out += ',';
            out += sim::yield_name(id);
        }
    }
    return out.empty() ? "none" : out;
}

Options
parse_options(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (const char* v = flag_value(a, "--seeds"))
            o.seeds = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--seed-base"))
            o.seed_base = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--seed"))
            o.seed = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--sites"))
            o.sites = parse_sites(v);
        else if (const char* v = flag_value(a, "--bug")) {
            o.bug = sim::bug_from_name(v);
            if (o.bug == sim::BugId::kNone &&
                std::strcmp(v, "none") != 0) {
                std::fprintf(stderr, "schedfuzz: unknown bug '%s'\n", v);
                std::exit(2);
            }
        } else if (const char* v = flag_value(a, "--updaters"))
            o.updaters = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else if (const char* v = flag_value(a, "--readers"))
            o.readers = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else if (const char* v = flag_value(a, "--ops"))
            o.ops = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--magazine-capacity"))
            o.magazine_capacity = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--pcp-high-watermark"))
            o.pcp_high_watermark = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--lockfree-pcpu"))
            o.lockfree_pcpu = std::atoi(v);
        else if (const char* v = flag_value(a, "--base-delay-ns"))
            o.base_delay_ns = std::strtoull(v, nullptr, 10);
        else if (const char* v = flag_value(a, "--report"))
            o.report_path = v;
        else if (std::strcmp(a, "--self-test") == 0)
            o.self_test = true;
        else if (std::strcmp(a, "--no-shrink") == 0)
            o.shrink = false;
        else if (std::strcmp(a, "--help") == 0) {
            std::printf(
                "usage: schedfuzz [--seeds=N] [--seed-base=K] [--seed=K]\n"
                "                 [--sites=a,b,...] [--bug=NAME]\n"
                "                 [--updaters=N] [--readers=N] [--ops=N]\n"
                "                 [--magazine-capacity=N]\n"
                "                 [--pcp-high-watermark=N]\n"
                "                 [--lockfree-pcpu=0|1]\n"
                "                 [--base-delay-ns=N] [--report=FILE]\n"
                "                 [--self-test] [--no-shrink]\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "schedfuzz: unknown flag '%s'\n", a);
            std::exit(2);
        }
    }
    return o;
}

struct RunResult
{
    bool failed = false;
    std::vector<sim::Violation> violations;
    std::string accounting_error;  // validate() / integrity failures
};

/**
 * One seeded run: a fresh domain + allocator, a small updater/reader
 * fleet with bound logical thread ids, model checking throughout, and
 * the full battery of quiesce-time identities at the end.
 */
RunResult
run_one(std::uint64_t seed, std::uint32_t sites, const Options& o)
{
    RunResult result;

    sim::Scheduler& sched = sim::Scheduler::instance();
    sched.reset(seed);
    sim::set_bug(o.bug);

    RcuConfig rcfg;
    rcfg.background_gp_thread = true;
    rcfg.gp_interval = std::chrono::microseconds(50);
    RcuDomain domain(rcfg);

    PrudenceConfig pcfg;
    pcfg.arena_bytes = std::size_t{1} << 24;  // 16 MiB
    pcfg.cpus = 2;
    pcfg.magazine_capacity = o.magazine_capacity;
    pcfg.pcp_high_watermark = o.pcp_high_watermark;
    if (o.lockfree_pcpu >= 0)
        pcfg.lockfree_pcpu = o.lockfree_pcpu != 0;
    pcfg.maintenance_interval = std::chrono::microseconds(100);
    PrudenceAllocator alloc(domain, pcfg);

    sim::ModelChecker model;
    model.set_completed_provider(
        [&domain] { return domain.completed_epoch(); });
    sim::ModelChecker::install(&model);
    sched.start(sites, o.base_delay_ns);

    constexpr std::size_t kSlots = 32;
    std::atomic<void*> slots[kSlots] = {};

    auto updater = [&](unsigned id) {
        sim::Scheduler::bind_thread(id);
        for (std::uint64_t k = 0; k < o.ops; ++k) {
            void* obj = alloc.kmalloc(64);
            if (obj == nullptr)
                continue;
            // Publish, retire the displaced object through the
            // deferral path, and occasionally free immediately to mix
            // magazine refills with spills.
            void* old = slots[(id * 131 + k) % kSlots].exchange(
                obj, std::memory_order_acq_rel);
            if (old != nullptr)
                alloc.kfree_deferred(old);
            if ((k & 15) == 0) {
                if (void* extra = alloc.kmalloc(128))
                    alloc.kfree(extra);
            }
        }
        sim::Scheduler::unbind_thread();
    };
    auto reader = [&](unsigned id) {
        sim::Scheduler::bind_thread(id);
        for (std::uint64_t k = 0; k < o.ops * 2; ++k) {
            domain.read_lock();
            // Touch a published object inside the section, as an RCU
            // consumer would; the model tracks our snapshot.
            void* p = slots[(id * 37 + k) % kSlots].load(
                std::memory_order_acquire);
            if (p != nullptr) {
                volatile auto* bytes = static_cast<unsigned char*>(p);
                (void)bytes[0];
            }
            domain.read_unlock();
            if (model.has_violations())
                break;
        }
        sim::Scheduler::unbind_thread();
    };

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < o.updaters; ++i)
        threads.emplace_back(updater, i);
    for (unsigned i = 0; i < o.readers; ++i)
        threads.emplace_back(reader, o.updaters + i);
    for (auto& t : threads)
        t.join();

    // Retire the survivors through the deferral path, then quiesce so
    // every identity must hold exactly.
    for (auto& slot : slots) {
        if (void* p = slot.exchange(nullptr, std::memory_order_acq_rel))
            alloc.kfree_deferred(p);
    }
    alloc.quiesce();

    std::string err = alloc.validate();
    if (err.empty() && !alloc.page_allocator().check_integrity())
        err = "buddy free+cached+used != capacity at quiesce";

    sched.stop();
    sim::ModelChecker::install(nullptr);
    sim::set_bug(sim::BugId::kNone);

    result.violations = model.violations();
    result.accounting_error = err;
    result.failed = !result.violations.empty() || !err.empty();
    return result;
}

void
print_failure(std::uint64_t seed, std::uint32_t sites,
              const Options& o, const RunResult& r)
{
    std::printf("seed %llu: FAIL\n",
                static_cast<unsigned long long>(seed));
    for (const auto& v : r.violations) {
        std::printf("  model violation: %s obj=%p defer_epoch=%llu "
                    "tag=%llu completed=%llu\n",
                    v.kind.c_str(), v.object,
                    static_cast<unsigned long long>(v.defer_epoch),
                    static_cast<unsigned long long>(v.tag),
                    static_cast<unsigned long long>(v.completed));
    }
    if (!r.accounting_error.empty())
        std::printf("  accounting: %s\n", r.accounting_error.c_str());
    std::printf("  replay: schedfuzz --seed=%llu --sites=%s",
                static_cast<unsigned long long>(seed),
                sites_to_string(sites).c_str());
    if (o.bug != sim::BugId::kNone)
        std::printf(" --bug=%s", sim::bug_name(o.bug));
    if (o.magazine_capacity != 16)
        std::printf(" --magazine-capacity=%zu", o.magazine_capacity);
    if (o.pcp_high_watermark != 16)
        std::printf(" --pcp-high-watermark=%zu", o.pcp_high_watermark);
    if (o.lockfree_pcpu >= 0)
        std::printf(" --lockfree-pcpu=%d", o.lockfree_pcpu != 0 ? 1 : 0);
    std::printf("\n");
}

/**
 * Greedy delta debugging over the yield-site mask: try dropping each
 * active site; keep the drop when the seed still fails without it.
 * `attempts` re-runs per candidate absorb scheduling noise — a site
 * is only dropped when the failure reproduces without it.
 */
std::uint32_t
shrink_sites(std::uint64_t seed, std::uint32_t sites, const Options& o,
             int attempts = 2)
{
    std::uint32_t current = sites;
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(sim::YieldId::kMaxYield); ++i) {
        std::uint32_t bit = sim::yield_bit(static_cast<sim::YieldId>(i));
        if ((current & bit) == 0)
            continue;
        std::uint32_t candidate = current & ~bit;
        if (candidate == 0)
            continue;
        bool still_fails = false;
        for (int a = 0; a < attempts && !still_fails; ++a)
            still_fails = run_one(seed, candidate, o).failed;
        if (still_fails) {
            current = candidate;
            std::printf("  shrink: dropped %s -> {%s}\n",
                        sim::yield_name(static_cast<sim::YieldId>(i)),
                        sites_to_string(current).c_str());
        }
    }
    return current;
}

void
write_report(const Options& o, std::uint64_t seed,
             std::uint32_t sites, std::uint32_t shrunk,
             const RunResult& r)
{
    if (o.report_path.empty())
        return;
    std::FILE* f = std::fopen(o.report_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "schedfuzz: cannot write %s\n",
                     o.report_path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"sites\": \"%s\",\n",
                 sites_to_string(sites).c_str());
    std::fprintf(f, "  \"shrunk_sites\": \"%s\",\n",
                 sites_to_string(shrunk).c_str());
    std::fprintf(f, "  \"bug\": \"%s\",\n", sim::bug_name(o.bug));
    std::fprintf(f, "  \"magazine_capacity\": %zu,\n",
                 o.magazine_capacity);
    std::fprintf(f, "  \"pcp_high_watermark\": %zu,\n",
                 o.pcp_high_watermark);
    std::fprintf(f, "  \"violations\": %zu,\n", r.violations.size());
    std::fprintf(f, "  \"first_violation\": \"%s\",\n",
                 r.violations.empty() ? ""
                                      : r.violations[0].kind.c_str());
    std::fprintf(f, "  \"accounting\": \"%s\"\n",
                 r.accounting_error.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
}

/// Sweep seeds until one fails; returns 0 and sets *found on failure,
/// 1 when the whole sweep is clean.
bool
sweep(const Options& o, std::uint64_t* failing_seed, RunResult* failing)
{
    for (std::uint64_t i = 0; i < o.seeds; ++i) {
        std::uint64_t seed = o.seed_base + i;
        RunResult r = run_one(seed, o.sites, o);
        if (r.failed) {
            *failing_seed = seed;
            *failing = r;
            return true;
        }
        if ((i + 1) % 10 == 0)
            std::printf("  %llu/%llu seeds clean\n",
                        static_cast<unsigned long long>(i + 1),
                        static_cast<unsigned long long>(o.seeds));
    }
    return false;
}

int
self_test(Options o)
{
    std::printf("schedfuzz self-test\n");
    std::printf("[1/6] sweeping up to %llu seeds with --bug=%s\n",
                static_cast<unsigned long long>(o.seeds),
                sim::bug_name(sim::BugId::kStaleSpillTag));
    Options buggy = o;
    buggy.bug = sim::BugId::kStaleSpillTag;
    std::uint64_t seed = 0;
    RunResult r;
    if (!sweep(buggy, &seed, &r)) {
        std::printf("FAIL: deliberate bug not found within %llu seeds\n",
                    static_cast<unsigned long long>(o.seeds));
        return 1;
    }
    print_failure(seed, buggy.sites, buggy, r);

    std::printf("[2/6] replaying seed %llu\n",
                static_cast<unsigned long long>(seed));
    RunResult replay = run_one(seed, buggy.sites, buggy);
    if (!replay.failed) {
        std::printf("FAIL: seed %llu did not reproduce on replay\n",
                    static_cast<unsigned long long>(seed));
        return 1;
    }
    std::printf("  reproduced (%zu violations)\n",
                replay.violations.size());

    std::uint32_t shrunk = buggy.sites;
    if (o.shrink) {
        std::printf("[3/6] shrinking yield-site set\n");
        shrunk = shrink_sites(seed, buggy.sites, buggy);
        std::printf("  minimal sites: {%s}\n",
                    sites_to_string(shrunk).c_str());
    } else {
        std::printf("[3/6] shrink skipped (--no-shrink)\n");
    }
    write_report(buggy, seed, buggy.sites, shrunk, r);

    std::printf("[4/6] sweeping %llu seeds with the bug disarmed\n",
                static_cast<unsigned long long>(o.seeds));
    Options clean = o;
    clean.bug = sim::BugId::kNone;
    std::uint64_t clean_seed = 0;
    RunResult clean_r;
    if (sweep(clean, &clean_seed, &clean_r)) {
        print_failure(clean_seed, clean.sites, clean, clean_r);
        std::printf("FAIL: unmodified code failed under seed %llu\n",
                    static_cast<unsigned long long>(clean_seed));
        return 1;
    }

    // Second deliberate bug: a depot pop that skips the grace-period
    // check (DESIGN.md §14). Only the lock-free leg has a depot, so
    // force it on regardless of the command line.
    std::printf("[5/6] sweeping up to %llu seeds with --bug=%s "
                "(lock-free leg forced on)\n",
                static_cast<unsigned long long>(o.seeds),
                sim::bug_name(sim::BugId::kUnprotectedDepotPop));
    Options depot = o;
    depot.bug = sim::BugId::kUnprotectedDepotPop;
    depot.lockfree_pcpu = 1;
    std::uint64_t depot_seed = 0;
    RunResult depot_r;
    if (!sweep(depot, &depot_seed, &depot_r)) {
        std::printf("FAIL: deliberate depot bug not found within %llu "
                    "seeds\n",
                    static_cast<unsigned long long>(o.seeds));
        return 1;
    }
    print_failure(depot_seed, depot.sites, depot, depot_r);

    std::printf("[6/6] replaying seed %llu\n",
                static_cast<unsigned long long>(depot_seed));
    RunResult depot_replay = run_one(depot_seed, depot.sites, depot);
    if (!depot_replay.failed) {
        std::printf("FAIL: seed %llu did not reproduce on replay\n",
                    static_cast<unsigned long long>(depot_seed));
        return 1;
    }
    std::printf("  reproduced (%zu violations)\n",
                depot_replay.violations.size());

    std::printf("self-test PASS (bugs found at seeds %llu and %llu, "
                "clean sweep clean)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(depot_seed));
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o = parse_options(argc, argv);

    if (o.self_test)
        return self_test(o);

    if (o.seed != 0) {
        // Single-seed replay.
        RunResult r = run_one(o.seed, o.sites, o);
        if (r.failed) {
            print_failure(o.seed, o.sites, o, r);
            write_report(o, o.seed, o.sites, o.sites, r);
            return 1;
        }
        std::printf("seed %llu: PASS\n",
                    static_cast<unsigned long long>(o.seed));
        return 0;
    }

    std::printf("schedfuzz: sweeping %llu seeds from %llu "
                "(sites={%s}, bug=%s, mags=%zu, pcp=%zu)\n",
                static_cast<unsigned long long>(o.seeds),
                static_cast<unsigned long long>(o.seed_base),
                sites_to_string(o.sites).c_str(), sim::bug_name(o.bug),
                o.magazine_capacity, o.pcp_high_watermark);
    std::uint64_t seed = 0;
    RunResult r;
    if (sweep(o, &seed, &r)) {
        print_failure(seed, o.sites, o, r);
        std::uint32_t shrunk = o.sites;
        if (o.shrink) {
            shrunk = shrink_sites(seed, o.sites, o);
            std::printf("minimal sites: {%s}\n",
                        sites_to_string(shrunk).c_str());
            std::printf("replay: schedfuzz --seed=%llu --sites=%s%s%s\n",
                        static_cast<unsigned long long>(seed),
                        sites_to_string(shrunk).c_str(),
                        o.bug != sim::BugId::kNone ? " --bug=" : "",
                        o.bug != sim::BugId::kNone ? sim::bug_name(o.bug)
                                                   : "");
        }
        write_report(o, seed, o.sites, shrunk, r);
        return 1;
    }
    std::printf("schedfuzz: all %llu seeds clean\n",
                static_cast<unsigned long long>(o.seeds));
    return 0;
}
