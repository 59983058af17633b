/**
 * @file
 * prudtorture — rcutorture-style stress harness and deterministic
 * schedule fuzzer for the RCU–allocator co-design.
 *
 * Mixed reader / updater / OOM-stress threads hammer one allocator
 * (Prudence or the SLUB baseline) under deterministic perturbation
 * (src/perturb/, DESIGN.md §8), then quiesce and check invariants:
 *
 *  - no use-after-reclaim: a deferred object carries a poison stamp
 *    (magic + defer epoch); if it comes back from the allocator while
 *    its grace period is still open, that is a premature reclamation.
 *  - readers only ever observe live or dying objects (never reused
 *    memory) inside read-side critical sections.
 *  - after quiescing, allocator self-validation passes, the buddy
 *    allocator's integrity check passes, no objects are live and no
 *    deferrals are outstanding (baseline: callback backlog drained).
 *  - decision determinism: every site's live fire count and decision
 *    fingerprint must equal the offline replay for the same (seed,
 *    policy, evaluation count) — the same seed provably makes the
 *    same decisions, whatever the thread interleaving.
 *
 * Those threads and checks are fault mode (the default): the fault
 * sites fire at --fault-rate for --duration seconds (or --ops updates
 * in total) under --fault-seed. Schedule mode (--seeds, --seed or
 * --self-test) runs a smaller kmalloc updater/reader fleet instead:
 * each seed is one reproducible schedule-policy perturbation of the
 * race windows, with the sequential reference model
 * (perturb::ModelChecker) installed and the same quiesce-time
 * accounting checks. --self-test proves the sweep still convicts the
 * deliberate bugs (stale-spill-tag; unprotected-depot-pop on the
 * lock-free leg), replays and shrinks the failing seed, and passes a
 * clean sweep with the bugs disarmed.
 *
 * A failing run prints a replay line; the armed-site mask of the
 * failure (fault set or race windows) is shrunk to a minimal
 * still-failing subset, and --report=FILE keeps both as JSON.
 *
 * `--scenario=<stock-name-or-file>` switches to scenario mode: the
 * server-style load engine (DESIGN.md §15) replays the scenario on
 * the chosen allocator, then the same quiesce-time invariants are
 * checked, plus an offline per-shard op-stream replay that must
 * reproduce the engine's request counts and fingerprints exactly.
 *
 * Exit status is 0 only when every check passes.
 *
 * Typical runs:
 *   prudtorture --duration=30 --fault-seed=42
 *   prudtorture --allocator=slub --duration=10
 *   prudtorture --expect-stall --stall-threshold-ms=200 --duration=3
 *   prudtorture --seeds=200
 *   prudtorture --seed=17 --sites=mag_defer_buffer,gp_publish
 *   prudtorture --self-test
 *   prudtorture --scenario=burst
 *   prudtorture --scenario=my.scenario --unpaced --allocator=slub
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/allocator.h"
#include "core/prudence_allocator.h"
#include "governor/governor.h"
#include "page/buddy_allocator.h"
#include "perturb/perturb.h"
#include "perturb/ref_model.h"
#include "rcu/rcu_domain.h"
#include "rcu/stall_detector.h"
#include "slub/slub_allocator.h"
#include "telemetry/monitor.h"
#include "telemetry/prudstat.h"
#include "workload/engine.h"
#include "workload/loadgen.h"
#include "workload/report.h"
#include "workload/scenario.h"

namespace {

namespace perturb = prudence::perturb;
using perturb::Injector;
using perturb::Policy;
using perturb::SiteId;

/// Marks a knob whose default depends on the mode.
constexpr std::uint64_t kModeDefault = ~std::uint64_t{0};
/// Marks an unset --sites (the session bit is never a site).
constexpr std::uint32_t kModeSites = ~std::uint32_t{0};

struct Options
{
    double duration_s = 30.0;
    std::uint64_t fault_seed = 42;
    bool faults = true;
    double fault_rate = 0.02;
    /// Thread counts: fault mode 4 / 4 / 1, schedule mode 2 / 2 / 0.
    std::uint64_t readers = kModeDefault;
    std::uint64_t updaters = kModeDefault;
    std::uint64_t oom_threads = kModeDefault;
    std::string allocator = "prudence";
    /// Arena, magazines, page cache: fault mode 32 / 32 / 32, schedule
    /// mode 16 / 16 / 16.
    std::size_t arena_mb = kModeDefault;
    std::size_t magazine_capacity = kModeDefault;
    std::size_t pcp_high_watermark = kModeDefault;
    std::size_t pcp_batch = 8;
    std::uint64_t stall_threshold_ms = 1000;
    /// Lock-free per-CPU caches + magazine depot (DESIGN.md §14):
    /// -1 = build default, 0 = legacy spinlock leg, 1 = lock-free leg.
    int lockfree_pcpu = -1;
    bool expect_stall = false;
    /// Stop after this many updates in total instead of after
    /// --duration (0 = duration-bounded); schedule mode: updates per
    /// updater (default 300).
    std::uint64_t ops = kModeDefault;
    /// Single-threaded, ops-bounded, no background threads: two runs
    /// with the same --fault-seed are bit-identical in every fault
    /// fingerprint and accounting counter.
    bool deterministic = false;
    /// Write the machine-readable fingerprint + accounting report
    /// here ("" = don't).
    std::string report_json;
    /// Live vmstat-style console view (DESIGN.md §12) while the
    /// torture runs.
    bool prudstat = false;
    std::uint64_t prudstat_interval_ms = 500;
    /// Run the adaptive reclamation governor (DESIGN.md §13) over the
    /// torture: a private monitor feeds the stock scheme list, and
    /// governor_action faults refuse a share of its dispatches — the
    /// control loop must keep accounting and the fault-decision audit
    /// clean.
    bool governor = false;
    /// Scenario mode: stock scenario name or DSL file ("" = classic
    /// torture threads).
    std::string scenario;
    /// Scenario mode: run the schedule as fast as possible instead of
    /// pacing against the wall clock.
    bool scenario_paced = true;
    /// Scenario mode: engine threads (0 = one per shard).
    unsigned scenario_threads = 0;
    /// Scenario mode: override the spec's scheduled duration
    /// (0 = use the spec's).
    std::uint64_t scenario_duration_ms = 0;

    /// Schedule mode: seeded schedule perturbation with the reference
    /// model installed.
    bool schedule = false;
    std::uint64_t seeds = 20;     ///< sweep width
    std::uint64_t seed_base = 1;  ///< first seed of the sweep
    std::uint64_t seed = 0;       ///< != 0: replay this single seed
    /// Sites to arm (kModeSites = the mode's set: the fault sites, or
    /// the race windows).
    std::uint32_t sites = kModeSites;
    perturb::BugId bug = perturb::BugId::kNone;
    std::uint64_t base_delay_ns = 50'000;
    bool self_test = false;
    /// Shrink a failing run's site mask.
    bool shrink = true;
    /// Failing-run JSON report ("" = don't).
    std::string report;
    /// Command-line flags a replay line repeats verbatim.
    std::string replay_args;
};

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --duration=SECONDS       run time (default 30)\n"
        "  --fault-seed=N           deterministic decision seed "
        "(default 42)\n"
        "  --fault-rate=P           per-site fire probability "
        "(default 0.02)\n"
        "  --no-faults              run without arming any site\n"
        "  --readers=N              reader threads (default 4; "
        "schedule mode 2)\n"
        "  --updaters=N             updater threads (default 4; "
        "schedule mode 2)\n"
        "  --oom-threads=N          OOM-stress threads (default 1; "
        "schedule mode 0)\n"
        "  --allocator=KIND         prudence | slub (default prudence)\n"
        "  --arena-mb=N             simulated physical memory "
        "(default 32;\n"
        "                           schedule mode 16)\n"
        "  --magazine-capacity=N    thread-local magazine depth, "
        "0 = off (default 32;\n"
        "                           schedule mode 16)\n"
        "  --pcp-high-watermark=N   per-CPU page-cache watermark, "
        "0 = off (default 32;\n"
        "                           schedule mode 16)\n"
        "  --lockfree-pcpu=0|1      legacy spinlock (0) or lock-free "
        "per-CPU\n"
        "                           caches + depot (1); default = "
        "build default\n"
        "  --pcp-batch=N            page-cache refill/drain batch "
        "(default 8)\n"
        "  --stall-threshold-ms=N   stall-detector threshold "
        "(default 1000)\n"
        "  --expect-stall           inject one long GP stall and "
        "require detection\n"
        "  --ops=N                  stop after N updates instead of "
        "--duration\n"
        "                           (schedule mode: N per updater, "
        "default 300)\n"
        "  --deterministic          1 updater, no readers/OOM/"
        "background threads;\n"
        "                           same --fault-seed => identical "
        "fingerprints\n"
        "                           and accounting (implies --ops, "
        "default 50000)\n"
        "  --report-json=FILE       write fingerprints + accounting "
        "as JSON\n"
        "  --prudstat               live vmstat-style per-layer view "
        "while running\n"
        "  --prudstat-interval-ms=N row interval for --prudstat "
        "(default 500)\n"
        "  --governor               run the adaptive reclamation "
        "governor over the\n"
        "                           torture and arm governor_action "
        "refusal faults\n"
        "  --sites=a,b,...|none     arm only these sites (default: "
        "every fault site,\n"
        "                           or every race window in schedule "
        "mode)\n"
        "  --report=FILE            write a failing run's seed, sites, "
        "shrunk sites\n"
        "                           and replay line as JSON\n"
        "  --no-shrink              do not shrink a failing run's "
        "site mask\n"
        "schedule mode (the schedule policy on the race windows, "
        "reference model on):\n"
        "  --seeds=N                sweep N seeds (default 20)\n"
        "  --seed-base=K            first seed of the sweep "
        "(default 1)\n"
        "  --seed=K                 replay the single seed K\n"
        "  --bug=NAME               arm a deliberate bug "
        "(stale-spill-tag |\n"
        "                           unprotected-depot-pop)\n"
        "  --base-delay-ns=N        unscaled schedule delay "
        "(default 50000)\n"
        "  --self-test              prove the sweep convicts both "
        "deliberate bugs\n"
        "                           and passes clean\n"
        "scenario mode:\n"
        "  --scenario=NAME|FILE     run the load engine on a stock "
        "scenario\n"
        "                           (burst|diurnal|churn) or a DSL "
        "file, then check\n"
        "                           invariants + replay audit\n"
        "  --unpaced                run the schedule as fast as "
        "possible (service-\n"
        "                           time latency only)\n"
        "  --scenario-threads=N     engine threads (default: one per "
        "shard)\n"
        "  --scenario-duration-ms=N override the spec's scheduled "
        "duration\n",
        argv0);
}

bool
flag_value(const char* arg, const char* name, const char** out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *out = arg + n + 1;
        return true;
    }
    return false;
}

bool
parse_options(int argc, char** argv, Options& opt)
{
    for (int i = 1; i < argc; ++i) {
        const char* v = nullptr;
        // Flags that pick the seed, the sites or the outputs are
        // rewritten by a replay line; everything else it repeats.
        bool replayed = true;
        if (flag_value(argv[i], "--duration", &v))
            opt.duration_s = std::atof(v);
        else if (flag_value(argv[i], "--fault-seed", &v)) {
            opt.fault_seed = std::strtoull(v, nullptr, 0);
            replayed = false;
        } else if (flag_value(argv[i], "--fault-rate", &v))
            opt.fault_rate = std::atof(v);
        else if (std::strcmp(argv[i], "--no-faults") == 0)
            opt.faults = false;
        else if (flag_value(argv[i], "--readers", &v))
            opt.readers = std::strtoull(v, nullptr, 0);
        else if (flag_value(argv[i], "--updaters", &v))
            opt.updaters = std::strtoull(v, nullptr, 0);
        else if (flag_value(argv[i], "--oom-threads", &v))
            opt.oom_threads = std::strtoull(v, nullptr, 0);
        else if (flag_value(argv[i], "--allocator", &v))
            opt.allocator = v;
        else if (flag_value(argv[i], "--arena-mb", &v))
            opt.arena_mb = static_cast<std::size_t>(std::atoll(v));
        else if (flag_value(argv[i], "--magazine-capacity", &v))
            opt.magazine_capacity =
                static_cast<std::size_t>(std::atoll(v));
        else if (flag_value(argv[i], "--pcp-high-watermark", &v))
            opt.pcp_high_watermark =
                static_cast<std::size_t>(std::atoll(v));
        else if (flag_value(argv[i], "--pcp-batch", &v))
            opt.pcp_batch = static_cast<std::size_t>(std::atoll(v));
        else if (flag_value(argv[i], "--lockfree-pcpu", &v)) {
            opt.lockfree_pcpu = std::atoi(v);
            replayed = false;
        } else if (flag_value(argv[i], "--stall-threshold-ms", &v))
            opt.stall_threshold_ms = std::strtoull(v, nullptr, 0);
        else if (std::strcmp(argv[i], "--expect-stall") == 0)
            opt.expect_stall = true;
        else if (flag_value(argv[i], "--ops", &v))
            opt.ops = std::strtoull(v, nullptr, 0);
        else if (std::strcmp(argv[i], "--deterministic") == 0)
            opt.deterministic = true;
        else if (flag_value(argv[i], "--report-json", &v)) {
            opt.report_json = v;
            replayed = false;
        } else if (std::strcmp(argv[i], "--prudstat") == 0)
            opt.prudstat = true;
        else if (flag_value(argv[i], "--prudstat-interval-ms", &v))
            opt.prudstat_interval_ms = std::strtoull(v, nullptr, 0);
        else if (std::strcmp(argv[i], "--governor") == 0)
            opt.governor = true;
        else if (flag_value(argv[i], "--scenario", &v))
            opt.scenario = v;
        else if (std::strcmp(argv[i], "--unpaced") == 0)
            opt.scenario_paced = false;
        else if (flag_value(argv[i], "--scenario-threads", &v))
            opt.scenario_threads =
                static_cast<unsigned>(std::atoi(v));
        else if (flag_value(argv[i], "--scenario-duration-ms", &v))
            opt.scenario_duration_ms = std::strtoull(v, nullptr, 0);
        else if (flag_value(argv[i], "--sites", &v)) {
            if (!perturb::mask_from_names(v, opt.sites)) {
                std::fprintf(stderr, "prudtorture: bad --sites=%s\n", v);
                return false;
            }
            replayed = false;
        } else if (flag_value(argv[i], "--report", &v)) {
            opt.report = v;
            replayed = false;
        } else if (std::strcmp(argv[i], "--no-shrink") == 0)
            opt.shrink = false;
        else if (flag_value(argv[i], "--seeds", &v)) {
            opt.seeds = std::strtoull(v, nullptr, 0);
            opt.schedule = true;
            replayed = false;
        } else if (flag_value(argv[i], "--seed-base", &v)) {
            opt.seed_base = std::strtoull(v, nullptr, 0);
            opt.schedule = true;
            replayed = false;
        } else if (flag_value(argv[i], "--seed", &v)) {
            opt.seed = std::strtoull(v, nullptr, 0);
            opt.schedule = true;
            replayed = false;
        } else if (flag_value(argv[i], "--bug", &v)) {
            opt.bug = perturb::bug_from_name(v);
            if (opt.bug == perturb::BugId::kNone &&
                std::strcmp(v, "none") != 0) {
                std::fprintf(stderr, "prudtorture: unknown bug '%s'\n", v);
                return false;
            }
            replayed = false;
        } else if (flag_value(argv[i], "--base-delay-ns", &v))
            opt.base_delay_ns = std::strtoull(v, nullptr, 0);
        else if (std::strcmp(argv[i], "--self-test") == 0) {
            opt.self_test = true;
            opt.schedule = true;
            replayed = false;
        } else {
            usage(argv[0]);
            return false;
        }
        if (replayed) {
            opt.replay_args += ' ';
            opt.replay_args += argv[i];
        }
    }
    if (opt.allocator != "prudence" && opt.allocator != "slub") {
        usage(argv[0]);
        return false;
    }
    if (!opt.scenario.empty() &&
        (opt.deterministic || opt.expect_stall || opt.governor ||
         opt.schedule)) {
        std::fprintf(stderr,
                     "prudtorture: --scenario excludes --deterministic, "
                     "--expect-stall, --governor and schedule mode\n");
        return false;
    }
    if (opt.schedule &&
        (opt.deterministic || opt.expect_stall || opt.governor ||
         opt.allocator != "prudence")) {
        std::fprintf(stderr,
                     "prudtorture: schedule mode (--seeds, --seed, "
                     "--self-test) runs the Prudence allocator and "
                     "excludes --deterministic, --expect-stall and "
                     "--governor\n");
        return false;
    }
    if (opt.deterministic &&
        (opt.allocator != "prudence" || opt.expect_stall || opt.governor)) {
        // SLUB's callback drainer, the GP thread a stall would delay,
        // and the governor's loops are all free-running threads.
        std::fprintf(stderr,
                     "prudtorture: --deterministic runs the Prudence "
                     "allocator and excludes --expect-stall and "
                     "--governor\n");
        return false;
    }
    if (opt.deterministic) {
        // Exactly one mutator, nothing racing it: every fault-site
        // evaluation happens at a fixed position in program order.
        opt.updaters = 1;
        opt.readers = 0;
        opt.oom_threads = 0;
        if (opt.ops == kModeDefault)
            opt.ops = 50000;
    }
    auto pick = [&opt](auto& knob, auto fault_default,
                       auto schedule_default) {
        if (knob == kModeDefault)
            knob = opt.schedule ? schedule_default : fault_default;
    };
    pick(opt.readers, 4, 2);
    pick(opt.updaters, 4, 2);
    pick(opt.oom_threads, 1, 0);
    pick(opt.ops, 0, 300);
    pick(opt.arena_mb, 32, 16);
    pick(opt.magazine_capacity, 32, 16);
    pick(opt.pcp_high_watermark, 32, 16);
    if (opt.sites == kModeSites)
        opt.sites = opt.schedule ? perturb::schedule_sites()
                                 : perturb::all_sites();
    return true;
}

// ---------------------------------------------------------------------
// The torture object protocol.
//
// The first word is clobbered by the slab freelist link while the
// object is free, so every stamp lives past it. Stamps are accessed
// through std::atomic_ref: updaters and readers touch them
// concurrently by design.
// ---------------------------------------------------------------------

struct TortureObj
{
    void* reserved_link;       ///< clobbered by freelist_push
    std::uint64_t magic;       ///< kLive / kDying
    std::uint64_t defer_epoch; ///< stamped just before free_deferred
    std::uint64_t gen;         ///< updater generation (payload)
};

constexpr std::uint64_t kLive = 0x4C49564531415421ULL;
constexpr std::uint64_t kDying = 0x4459494E47303042ULL;
constexpr std::size_t kTortureObjSize = 64;
static_assert(sizeof(TortureObj) <= kTortureObjSize);

std::uint64_t
load_u64(std::uint64_t& field, std::memory_order mo)
{
    return std::atomic_ref<std::uint64_t>(field).load(mo);
}

void
store_u64(std::uint64_t& field, std::uint64_t v, std::memory_order mo)
{
    std::atomic_ref<std::uint64_t>(field).store(v, mo);
}

struct Torture
{
    Options opt;
    std::uint64_t seed;
    prudence::RcuDomain& domain;
    prudence::Allocator& alloc;
    prudence::CacheId cache;
    std::vector<std::atomic<TortureObj*>> slots;

    std::atomic<bool> stop{false};

    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> update_allocs_failed{0};
    std::atomic<std::uint64_t> oom_allocs{0};
    std::atomic<std::uint64_t> oom_clean_failures{0};

    // Invariant violations (must all be zero at exit).
    std::atomic<std::uint64_t> epoch_violations{0};
    std::atomic<std::uint64_t> reader_violations{0};

    Torture(const Options& o, std::uint64_t s, prudence::RcuDomain& d,
            prudence::Allocator& a, std::size_t nslots)
        : opt(o), seed(s), domain(d), alloc(a), slots(nslots)
    {
    }
};

void
updater_main(Torture& t, unsigned id)
{
    std::mt19937_64 rng(t.seed * 1000003 + id);
    std::uniform_int_distribution<std::size_t> pick(
        0, t.slots.size() - 1);

    while (!t.stop.load(std::memory_order_relaxed)) {
        if (t.opt.ops != 0 &&
            t.updates.load(std::memory_order_relaxed) >= t.opt.ops)
            break;
        // Deterministic mode has no background GP thread; the one
        // updater drives grace periods itself at a fixed cadence so
        // epoch completion sits at the same program-order points in
        // every run.
        if (t.opt.deterministic &&
            t.updates.load(std::memory_order_relaxed) % 256 == 255)
            t.domain.advance();
        auto* obj =
            static_cast<TortureObj*>(t.alloc.cache_alloc(t.cache));
        if (obj == nullptr) {
            // Graceful degradation under test: OOM (real or injected)
            // must surface as nullptr, never as a crash.
            t.update_allocs_failed.fetch_add(1,
                                             std::memory_order_relaxed);
            // Without a background GP thread an exhausted arena can
            // only recover through an explicit advance.
            if (t.opt.deterministic)
                t.domain.advance();
            std::this_thread::yield();
            continue;
        }

        // Poison check: a recycled object still stamped kDying must
        // have had its grace period completed, or the allocator
        // reused it while readers could still hold it.
        if (load_u64(obj->magic, std::memory_order_acquire) == kDying) {
            std::uint64_t e =
                load_u64(obj->defer_epoch, std::memory_order_relaxed);
            if (e > t.domain.completed_epoch()) {
                t.epoch_violations.fetch_add(1,
                                             std::memory_order_relaxed);
            }
        }

        store_u64(obj->defer_epoch, 0, std::memory_order_relaxed);
        store_u64(obj->gen, rng(), std::memory_order_relaxed);
        store_u64(obj->magic, kLive, std::memory_order_release);

        TortureObj* old = t.slots[pick(rng)].exchange(
            obj, std::memory_order_acq_rel);
        if (old != nullptr) {
            // Stamp before handing over: pre-existing readers may
            // still dereference the object, but we (the reclaimer)
            // own its logical state.
            store_u64(old->defer_epoch, t.domain.defer_epoch(),
                      std::memory_order_relaxed);
            store_u64(old->magic, kDying, std::memory_order_release);
            t.alloc.cache_free_deferred(t.cache, old);
        }
        t.updates.fetch_add(1, std::memory_order_relaxed);
    }
}

void
reader_main(Torture& t, unsigned id)
{
    std::mt19937_64 rng(t.seed * 7000003 + id);
    std::uniform_int_distribution<std::size_t> pick(
        0, t.slots.size() - 1);

    while (!t.stop.load(std::memory_order_relaxed)) {
        prudence::RcuReadGuard guard(t.domain);
        for (int i = 0; i < 16; ++i) {
            TortureObj* obj =
                t.slots[pick(rng)].load(std::memory_order_acquire);
            if (obj == nullptr)
                continue;
            // Because the slot was published when we loaded it and we
            // are inside a read-side critical section, the object can
            // be live or dying but never reclaimed-and-reused.
            std::uint64_t m =
                load_u64(obj->magic, std::memory_order_acquire);
            if (m != kLive && m != kDying) {
                t.reader_violations.fetch_add(
                    1, std::memory_order_relaxed);
            }
            t.reads.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
oom_main(Torture& t, unsigned id)
{
    std::mt19937_64 rng(t.seed * 9000017 + id);
    std::vector<void*> held;
    held.reserve(8192);

    while (!t.stop.load(std::memory_order_relaxed)) {
        void* p = t.alloc.kmalloc(256);
        if (p != nullptr) {
            held.push_back(p);
            t.oom_allocs.fetch_add(1, std::memory_order_relaxed);
        } else {
            // The whole point: exhaustion comes back as a clean
            // nullptr. Release the hoard so the system recovers.
            t.oom_clean_failures.fetch_add(1,
                                           std::memory_order_relaxed);
            for (void* q : held)
                t.alloc.kfree(q);
            held.clear();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (held.size() >= 8192) {
            for (void* q : held)
                t.alloc.kfree(q);
            held.clear();
        }
    }
    for (void* q : held)
        t.alloc.kfree(q);
}

// ---------------------------------------------------------------------
// Fault arming and the determinism report.
// ---------------------------------------------------------------------

/// Arm the fault sites in @p sites under @p seed.
void
arm_faults(const Options& opt, std::uint64_t seed, std::uint32_t sites)
{
    Injector& inj = Injector::instance();
    inj.reset(seed);
    if (!opt.faults)
        return;
    auto arm = [&inj, sites](SiteId id, const Policy& policy) {
        if (sites & perturb::site_bit(id))
            inj.arm(id, policy);
    };

    Policy prob;
    prob.probability = opt.fault_rate;
    arm(SiteId::kBuddyAlloc, prob);
    arm(SiteId::kPcpRefill, prob);
    arm(SiteId::kSlabGrow, prob);
    arm(SiteId::kRefillFail, prob);
    arm(SiteId::kLatentStarve, prob);

    Policy slow;
    slow.probability = std::min(1.0, opt.fault_rate * 5.0);
    arm(SiteId::kSlowPath, slow);

    Policy drain;
    drain.every_nth = 5;
    arm(SiteId::kDrainerStall, drain);

    Policy drop;
    drop.probability = 0.25;
    arm(SiteId::kExpediteDrop, drop);

    if (opt.governor) {
        // Refuse a quarter of governor actuations: held-state
        // dispatches must retry until one lands, and the decision
        // audit below must still match the offline replay.
        Policy refuse;
        refuse.probability = 0.25;
        arm(SiteId::kGovernorAction, refuse);
    }

    if (opt.expect_stall) {
        // One long stall, well past the detector threshold; the run
        // then requires stalls_detected() >= 1.
        Policy stall;
        stall.one_shot = true;
        stall.delay_ns = opt.stall_threshold_ms * 3 * 1000000ULL;
        arm(SiteId::kGpDelay, stall);
    } else {
        Policy gp;
        gp.every_nth = 64;
        gp.delay_ns = 500000;  // 0.5 ms: stretches GPs, below threshold
        arm(SiteId::kGpDelay, gp);
    }
}

/// Cross-check every site's live activity against the offline replay
/// and, when @p print, show both tables. @return number of
/// determinism mismatches.
int
fault_report(const std::vector<perturb::SiteReport>& reports,
             std::uint64_t seed, bool print)
{
    int mismatches = 0;
    if (print) {
        std::printf("\n--- fault sites (seed=%" PRIu64 ") ---\n", seed);
        std::printf("%-14s %12s %10s %18s  %s\n", "site", "evaluations",
                    "triggers", "fingerprint", "replay");
    }
    for (const auto& r : reports) {
        bool ok = Injector::expected_fires(seed, r.id, r.policy,
                                           r.evaluations) == r.fires &&
                  Injector::expected_fingerprint(seed, r.id, r.policy,
                                                 r.evaluations) ==
                      r.fingerprint;
        if (!ok)
            ++mismatches;
        if (print)
            std::printf("%-14s %12" PRIu64 " %10" PRIu64 " 0x%016" PRIx64
                        "  %s\n",
                        perturb::site_name(r.id), r.evaluations, r.fires,
                        r.fingerprint, ok ? "match" : "MISMATCH");
    }
    if (!print)
        return mismatches;

    // Fixed-horizon decision audit: a pure function of the seed and
    // policies — byte-identical across runs with the same seed,
    // whatever the scheduler did.
    constexpr std::uint64_t kHorizon = 100000;
    std::printf("--- decision audit (horizon=%" PRIu64
                ", pure replay) ---\n",
                kHorizon);
    for (const auto& r : reports) {
        std::printf("%-14s triggers=%" PRIu64 " fingerprint=0x%016"
                    PRIx64 "\n",
                    perturb::site_name(r.id),
                    Injector::expected_fires(seed, r.id, r.policy,
                                             kHorizon),
                    Injector::expected_fingerprint(seed, r.id, r.policy,
                                                   kHorizon));
    }
    return mismatches;
}

/**
 * Stop the process-wide injector and return the final activity of
 * every site that was armed or evaluated. An arrival that passed the
 * gate just before stop() may still be updating its site's counters,
 * so the snapshot is re-read until it replays; a real divergence
 * persists and is reported.
 */
std::vector<perturb::SiteReport>
settled_reports(std::uint64_t seed)
{
    Injector& inj = Injector::instance();
    std::vector<perturb::SiteReport> reports = inj.report_all();
    inj.stop();
    for (int attempt = 0; attempt < 10; ++attempt) {
        for (auto& r : reports)
            r = inj.report(r.id);
        if (fault_report(reports, seed, false) == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return reports;
}

/**
 * Machine-readable run report: every fault site's decision
 * fingerprint plus the post-quiesce accounting snapshot. Field order
 * is fixed and no wall-clock-derived value appears, so two
 * deterministic runs with the same --fault-seed produce byte-
 * identical files (scripts/check_determinism.sh diffs them).
 */
bool
write_report_json(const std::string& path, const Options& opt,
                  const std::vector<perturb::SiteReport>& reports,
                  const Torture& t, prudence::Allocator& alloc)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "prudtorture: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"fault_seed\": %" PRIu64 ",\n"
                 "  \"deterministic\": %s,\n"
                 "  \"ops\": %" PRIu64 ",\n"
                 "  \"allocator\": \"%s\",\n",
                 opt.fault_seed, opt.deterministic ? "true" : "false",
                 opt.ops, alloc.kind());

    std::fprintf(f, "  \"sites\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& r = reports[i];
        std::fprintf(f,
                     "    {\"site\": \"%s\", \"evaluations\": %" PRIu64
                     ", \"triggers\": %" PRIu64
                     ", \"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     perturb::site_name(r.id), r.evaluations,
                     r.fires, r.fingerprint,
                     i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    std::fprintf(f,
                 "  \"counters\": {\"reads\": %" PRIu64
                 ", \"updates\": %" PRIu64
                 ", \"update_allocs_failed\": %" PRIu64 "},\n",
                 t.reads.load(), t.updates.load(),
                 t.update_allocs_failed.load());

    const auto snaps = alloc.snapshots();
    std::fprintf(f, "  \"caches\": [\n");
    bool first = true;
    for (const auto& s : snaps) {
        if (s.alloc_calls == 0 && s.free_calls == 0)
            continue;
        std::fprintf(f,
                     "%s    {\"name\": \"%s\", \"alloc_calls\": %" PRIu64
                     ", \"free_calls\": %" PRIu64
                     ", \"deferred_free_calls\": %" PRIu64
                     ", \"live_objects\": %" PRId64
                     ", \"deferred_outstanding\": %" PRId64 "}",
                     first ? "" : ",\n", s.cache_name.c_str(),
                     s.alloc_calls, s.free_calls, s.deferred_free_calls,
                     static_cast<std::int64_t>(s.live_objects),
                     static_cast<std::int64_t>(s.deferred_outstanding));
        first = false;
    }
    std::fprintf(f, "\n  ],\n");

    const auto buddy = alloc.page_allocator().stats();
    std::fprintf(f,
                 "  \"buddy\": {\"alloc_calls\": %" PRIu64
                 ", \"failed_allocs\": %" PRIu64
                 ", \"bad_frees\": %" PRIu64 "}\n}\n",
                 buddy.alloc_calls, buddy.failed_allocs,
                 buddy.bad_frees);
    std::fclose(f);
    return true;
}

/**
 * The quiesce-time accounting identities: validate(), the buddy
 * integrity walk (free + cached + used == capacity), no live objects,
 * no deferrals outstanding and, on the SLUB baseline, no callback
 * backlog. @return the failures, in check order.
 */
std::vector<std::string>
quiesce_failures(prudence::Allocator& alloc, prudence::SlubAllocator* slub)
{
    std::vector<std::string> failures;
    std::string verr = alloc.validate();
    if (!verr.empty())
        failures.push_back("validate(): " + verr);
    if (!alloc.page_allocator().check_integrity())
        failures.push_back("buddy allocator integrity check failed");
    std::int64_t live = 0, deferred = 0;
    for (const auto& s : alloc.snapshots()) {
        live += s.live_objects;
        deferred += s.deferred_outstanding;
    }
    if (live != 0)
        failures.push_back("live objects remain after quiesce");
    if (deferred != 0)
        failures.push_back("deferred objects remain after quiesce");
    if (slub != nullptr && slub->callback_stats().backlog != 0)
        failures.push_back("callback backlog remains after quiesce");
    return failures;
}

// ---------------------------------------------------------------------
// Scenario mode (DESIGN.md §15): run the load engine, then check the
// same quiesce-time invariants plus the offline op-stream replay.
// ---------------------------------------------------------------------

int
run_scenario_mode(const Options& opt, prudence::RcuDomain& domain,
                  prudence::Allocator& alloc,
                  prudence::SlubAllocator* slub)
{
    prudence::ScenarioSpec spec;
    if (!prudence::stock_scenario(opt.scenario, spec)) {
        std::ifstream in(opt.scenario);
        if (!in) {
            std::fprintf(stderr,
                         "prudtorture: --scenario=%s is neither a stock "
                         "scenario nor a readable file\n",
                         opt.scenario.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        prudence::ScenarioParseResult parsed =
            prudence::parse_scenario(text.str());
        if (!parsed.ok) {
            std::fprintf(stderr, "prudtorture: %s: %s\n",
                         opt.scenario.c_str(), parsed.error.c_str());
            return 2;
        }
        for (const std::string& note : parsed.clamped)
            std::fprintf(stderr, "prudtorture: %s: note: %s\n",
                         opt.scenario.c_str(), note.c_str());
        spec = parsed.spec;
    }
    if (opt.scenario_duration_ms != 0)
        spec.duration_ms =
            static_cast<std::uint32_t>(opt.scenario_duration_ms);
    prudence::clamp_scenario(spec);

    std::printf("prudtorture: scenario=%s allocator=%s arena=%zuMB "
                "shards=%u duration=%ums paced=%s fault-seed=%" PRIu64
                " faults=%s\n",
                spec.name.c_str(), alloc.kind(), opt.arena_mb,
                spec.shards, spec.duration_ms,
                opt.scenario_paced ? "yes" : "no", opt.fault_seed,
                opt.faults ? "on" : "off");

    prudence::ScenarioRunOptions ropts;
    ropts.paced = opt.scenario_paced;
    ropts.threads = opt.scenario_threads;
    prudence::ScenarioResult r =
        prudence::run_scenario(alloc, domain, spec, ropts);
    prudence::print_scenario_summary(std::cout, r);
    prudence::print_scenario_row(std::cout, r);

    // Capture the fault report before the checks disturb anything.
    Injector& inj = Injector::instance();
    auto reports = settled_reports(opt.fault_seed);
    inj.reset(opt.fault_seed);

    int failures = 0;
    auto fail = [&failures](const char* what) {
        std::fprintf(stderr, "prudtorture: FAILURE: %s\n", what);
        ++failures;
    };

    // The engine quiesced at teardown (a live object is a leaked
    // connection or published object): exact accounting must hold.
    for (const std::string& what : quiesce_failures(alloc, slub))
        fail(what.c_str());
    if (r.latency.count != r.completed_requests)
        fail("latency histogram total != completed requests");

    // Offline replay audit: the op stream the engine served must be a
    // pure function of (spec, shard, seed) — same counts, same
    // fingerprints, whatever the engine's threads did.
    std::uint64_t replay_total = 0;
    bool fp_mismatch = false;
    for (unsigned s = 0; s < spec.shards; ++s) {
        std::uint64_t count = 0, fp = 0;
        prudence::ShardScript::replay(spec, s, spec.seed, count, fp);
        replay_total += count;
        if (fp != r.shard_fingerprints[s])
            fp_mismatch = true;
    }
    if (fp_mismatch)
        fail("per-shard op-stream fingerprint diverged from offline "
             "replay");
    if (replay_total != r.completed_requests)
        fail("completed requests != offline replay schedule length");
    if (prudence::combine_fingerprints(r.shard_fingerprints) !=
        r.fingerprint)
        fail("combined fingerprint does not fold the shard "
             "fingerprints");
    std::printf("replay audit: %" PRIu64 " requests, fingerprint "
                "0x%016" PRIx64 " (%s)\n",
                replay_total, r.fingerprint,
                failures == 0 ? "match" : "see failures");

    int mismatches = fault_report(reports, opt.fault_seed, true);
    if (mismatches != 0)
        fail("fault decision sequence diverged from offline replay");

    if (failures == 0) {
        std::printf(
            "\nprudtorture: SUCCESS (0 invariant violations)\n");
        return 0;
    }
    std::fprintf(stderr, "\nprudtorture: %d check(s) FAILED\n",
                 failures);
    return 1;
}

// ---------------------------------------------------------------------
// One run: the torture threads (fault mode) or the schedule fleet.
// ---------------------------------------------------------------------

std::unique_ptr<prudence::Allocator>
make_allocator(const Options& opt, prudence::RcuDomain& domain,
               prudence::SlubAllocator** slub)
{
    *slub = nullptr;
    if (opt.allocator == "slub") {
        prudence::SlubConfig cfg;
        cfg.arena_bytes = opt.arena_mb << 20;
        cfg.magazine_capacity = opt.magazine_capacity;
        cfg.pcp_high_watermark = opt.pcp_high_watermark;
        cfg.pcp_batch = opt.pcp_batch;
        if (opt.lockfree_pcpu >= 0)
            cfg.lockfree_pcpu = opt.lockfree_pcpu != 0;
        auto owned = std::make_unique<prudence::SlubAllocator>(domain, cfg);
        *slub = owned.get();
        return owned;
    }
    prudence::PrudenceConfig cfg;
    cfg.arena_bytes = opt.arena_mb << 20;
    cfg.magazine_capacity = opt.magazine_capacity;
    cfg.pcp_high_watermark = opt.pcp_high_watermark;
    cfg.pcp_batch = opt.pcp_batch;
    if (opt.lockfree_pcpu >= 0)
        cfg.lockfree_pcpu = opt.lockfree_pcpu != 0;
    if (opt.deterministic)
        cfg.maintenance_interval = std::chrono::microseconds(0);
    if (opt.schedule) {
        // Two virtual CPUs so the seeded threads share per-CPU state,
        // and a fast maintenance tick racing them.
        cfg.cpus = 2;
        cfg.maintenance_interval = std::chrono::microseconds(100);
    }
    return std::make_unique<prudence::PrudenceAllocator>(domain, cfg);
}

struct RunResult
{
    /// Invariant and accounting failures, in detection order.
    std::vector<std::string> failures;
    /// Reference-model violations (schedule mode).
    std::vector<perturb::Violation> violations;
    /// The sites that were armed.
    std::uint32_t armed = 0;

    bool
    failed() const
    {
        return !failures.empty() || !violations.empty();
    }
};

/**
 * One fault-mode run under @p seed with the sites in @p sites armed: a
 * fresh domain and allocator, the torture threads, and the
 * quiesce-time checks. @p verbose also prints the site tables, the run
 * summary and the --report-json file.
 */
RunResult
run_torture(const Options& opt, std::uint64_t seed, std::uint32_t sites,
            bool verbose)
{
    RunResult result;
    auto fail = [&result](std::string what) {
        result.failures.push_back(std::move(what));
    };

    prudence::RcuConfig rcu_cfg;
    rcu_cfg.gp_interval = std::chrono::microseconds(200);
    // Deterministic mode: no free-running GP thread — the updater
    // advances grace periods at fixed program-order points.
    rcu_cfg.background_gp_thread = !opt.deterministic;
    prudence::RcuDomain domain(rcu_cfg);

    prudence::SlubAllocator* slub = nullptr;
    std::unique_ptr<prudence::Allocator> alloc =
        make_allocator(opt, domain, &slub);
    prudence::CacheId cache =
        alloc->create_cache("torture.obj", kTortureObjSize);

    prudence::StallDetectorConfig stall_cfg;
    stall_cfg.threshold =
        std::chrono::milliseconds(opt.stall_threshold_ms);
    prudence::StallDetector detector(domain, stall_cfg);

    // Arm only after construction so startup itself (arena
    // reservation, cache creation) is not perturbed.
    Injector& inj = Injector::instance();
    arm_faults(opt, seed, sites);
    result.armed = inj.armed_mask() & ~perturb::kSessionBit;

    // Adaptive reclamation governor (DESIGN.md §13): a private 1 ms
    // monitor feeds the stock scheme list; the OOM ladder hands off
    // into the governor's terminal pressure level. With --governor the
    // governor_action site refuses a share of dispatches, so the
    // held-state retry path runs under the same determinism audit as
    // every other site.
    std::unique_ptr<prudence::telemetry::Monitor> gov_monitor;
    std::unique_ptr<prudence::telemetry::ProbeGroup> gov_probes;
    std::unique_ptr<prudence::governor::AllocatorActuators> gov_acts;
    std::unique_ptr<prudence::governor::ReclamationGovernor> gov;
    if (opt.governor) {
        prudence::telemetry::MonitorConfig mcfg;
        mcfg.period = std::chrono::milliseconds(1);
        gov_monitor =
            std::make_unique<prudence::telemetry::Monitor>(mcfg);
        gov_probes =
            std::make_unique<prudence::telemetry::ProbeGroup>(
                *gov_monitor);
        alloc->register_telemetry_probes(*gov_probes);
        domain.register_telemetry_probes(*gov_probes);
        prudence::telemetry::add_registry_probes(*gov_probes);
        gov_monitor->start();

        gov_acts =
            std::make_unique<prudence::governor::AllocatorActuators>(
                domain, *alloc);
        prudence::governor::DefaultSchemeTuning tuning;
        // Scale the latent watermark to the torture arena so the
        // schemes actually fire under OOM-stress churn.
        tuning.latent_bytes_high = (opt.arena_mb << 20) / 8;
        prudence::governor::GovernorConfig gcfg;
        gcfg.period = std::chrono::milliseconds(2);
        gcfg.schemes = prudence::governor::default_schemes(tuning);
        gov = std::make_unique<prudence::governor::ReclamationGovernor>(
            *gov_monitor, *gov_acts, gcfg);
        if (auto* pa =
                dynamic_cast<prudence::PrudenceAllocator*>(alloc.get()))
            pa->set_pressure_listener(
                [&g = *gov](int rung) { g.note_oom_ladder(rung); });
        gov->start();
    }

    Torture t(opt, seed, domain, *alloc, /*nslots=*/2048);
    t.cache = cache;

    if (verbose && opt.ops != 0)
        std::printf("prudtorture: allocator=%s arena=%zuMB readers=%" PRIu64
                    " updaters=%" PRIu64 " oom-threads=%" PRIu64
                    " ops=%" PRIu64 " deterministic=%s fault-seed=%" PRIu64
                    " faults=%s\n",
                    alloc->kind(), opt.arena_mb, opt.readers,
                    opt.updaters, opt.oom_threads, opt.ops,
                    opt.deterministic ? "yes" : "no", seed,
                    opt.faults ? "on" : "off");
    else if (verbose)
        std::printf("prudtorture: allocator=%s arena=%zuMB readers=%" PRIu64
                    " updaters=%" PRIu64 " oom-threads=%" PRIu64
                    " duration=%.1fs fault-seed=%" PRIu64 " faults=%s\n",
                    alloc->kind(), opt.arena_mb, opt.readers,
                    opt.updaters, opt.oom_threads, opt.duration_s, seed,
                    opt.faults ? "on" : "off");

    // Live per-layer console view: a Monitor polls the allocator,
    // domain and registry probes; a printer thread renders one
    // prudstat row per interval until the torture phase ends.
    std::unique_ptr<prudence::telemetry::Monitor> stat_monitor;
    std::unique_ptr<prudence::telemetry::ProbeGroup> stat_probes;
    std::thread stat_thread;
    std::atomic<bool> stat_stop{false};
    if (opt.prudstat) {
        prudence::telemetry::MonitorConfig mcfg;
        mcfg.period = std::chrono::microseconds(
            opt.prudstat_interval_ms * 1000);
        stat_monitor =
            std::make_unique<prudence::telemetry::Monitor>(mcfg);
        stat_probes =
            std::make_unique<prudence::telemetry::ProbeGroup>(
                *stat_monitor);
        alloc->register_telemetry_probes(*stat_probes);
        domain.register_telemetry_probes(*stat_probes);
        prudence::telemetry::add_registry_probes(*stat_probes);
        stat_monitor->start();
        stat_thread = std::thread([&opt, &stat_monitor, &stat_stop] {
            prudence::telemetry::PrudstatView view(*stat_monitor);
            while (!stat_stop.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    opt.prudstat_interval_ms));
                view.render(std::cout);
            }
        });
    }

    std::vector<std::thread> updaters;
    std::vector<std::thread> others;
    for (unsigned i = 0; i < opt.updaters; ++i)
        updaters.emplace_back([&t, i] { updater_main(t, i); });
    for (unsigned i = 0; i < opt.readers; ++i)
        others.emplace_back([&t, i] { reader_main(t, i); });
    for (unsigned i = 0; i < opt.oom_threads; ++i)
        others.emplace_back([&t, i] { oom_main(t, i); });

    if (opt.ops != 0) {
        // Ops-bounded: the updaters stop themselves at the target;
        // readers and OOM threads run until the last updater is done.
        for (auto& th : updaters)
            th.join();
        t.stop.store(true, std::memory_order_relaxed);
    } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opt.duration_s));
        t.stop.store(true, std::memory_order_relaxed);
        for (auto& th : updaters)
            th.join();
    }
    for (auto& th : others)
        th.join();

    if (stat_thread.joinable()) {
        stat_stop.store(true, std::memory_order_relaxed);
        stat_thread.join();
        stat_monitor->stop();
        // Deactivate the probe closures (they capture the allocator
        // and domain) before the quiesce/validate phase below.
        stat_probes.reset();
        std::printf("prudstat: %" PRIu64 " sampling rounds\n",
                    stat_monitor->rounds());
    }

    // Stop the governor before the site report: no governor_action
    // evaluation may land between the live capture and the replay
    // cross-check. stop() relaxes pacing and admission to nominal so
    // quiesce/validate below runs on an un-actuated allocator.
    prudence::governor::GovernorStats gov_stats;
    if (gov) {
        gov->stop();
        gov_stats = gov->stats();
        if (auto* pa =
                dynamic_cast<prudence::PrudenceAllocator*>(alloc.get()))
            pa->set_pressure_listener(nullptr);
        gov_monitor->stop();
        // Probe closures capture the allocator and domain; drop them
        // before the quiesce/validate phase.
        gov_probes.reset();
    }

    // Disarm everything so the quiesce/validate phase runs
    // unperturbed.
    std::vector<perturb::SiteReport> reports = settled_reports(seed);
    inj.reset(seed);

    // Drain the published objects (still live) and settle.
    for (auto& slot : t.slots) {
        if (TortureObj* obj = slot.exchange(nullptr))
            alloc->cache_free(cache, obj);
    }
    alloc->quiesce();

    // ---- invariant checks ----
    if (t.epoch_violations.load() != 0)
        fail("object reused before its grace period completed");
    if (t.reader_violations.load() != 0)
        fail("reader observed reclaimed memory in a read-side "
             "critical section");

    for (std::string& what : quiesce_failures(*alloc, slub))
        fail(std::move(what));

    if (opt.expect_stall && detector.stalls_detected() == 0)
        fail("expected a grace-period stall; none detected");

    if (fault_report(reports, seed, verbose) != 0)
        fail("fault decision sequence diverged from offline replay");

    if (!verbose)
        return result;
    if (!opt.report_json.empty() &&
        !write_report_json(opt.report_json, opt, reports, t, *alloc))
        fail("could not write --report-json file");

    // ---- summary ----
    auto rcu = domain.stats();
    auto buddy = alloc->page_allocator().stats();
    std::printf("\n--- summary ---\n");
    std::printf("reads=%" PRIu64 " updates=%" PRIu64
                " update-allocs-failed=%" PRIu64 "\n",
                t.reads.load(), t.updates.load(),
                t.update_allocs_failed.load());
    std::printf("oom-allocs=%" PRIu64 " oom-clean-failures=%" PRIu64
                "\n",
                t.oom_allocs.load(), t.oom_clean_failures.load());
    std::printf("grace-periods=%" PRIu64 " stalls-detected=%" PRIu64
                "\n",
                rcu.grace_periods, detector.stalls_detected());
    if (gov)
        std::printf("governor: evaluations=%" PRIu64 " fires=%" PRIu64
                    " effects=%" PRIu64 " refusals=%" PRIu64
                    " level-transitions=%" PRIu64
                    " max-ladder-rung=%d\n",
                    gov_stats.evaluations, gov_stats.fires,
                    gov_stats.effects, gov_stats.refusals,
                    gov_stats.level_transitions, gov->max_ladder_rung());
    std::printf("buddy: allocs=%" PRIu64 " failed=%" PRIu64
                " bad-frees=%" PRIu64 "\n",
                buddy.alloc_calls, buddy.failed_allocs,
                buddy.bad_frees);
    for (const auto& s : alloc->snapshots()) {
        if (s.alloc_calls == 0)
            continue;
        std::printf("cache %-14s allocs=%" PRIu64 " oom-waits=%" PRIu64
                    " oom-expedites=%" PRIu64 " oom-failures=%" PRIu64
                    "\n",
                    s.cache_name.c_str(), s.alloc_calls, s.oom_waits,
                    s.oom_expedites, s.oom_failures);
    }
    return result;
}

/**
 * One schedule-mode run under @p seed with the race windows in
 * @p sites perturbed: a fresh domain and allocator, a small updater /
 * reader fleet with bound logical thread ids, the reference model
 * checking throughout, and the quiesce-time identities at the end.
 */
RunResult
run_schedule(const Options& opt, std::uint64_t seed, std::uint32_t sites)
{
    RunResult result;
    Injector& inj = Injector::instance();
    inj.reset(seed);
    perturb::set_bug(opt.bug);

    prudence::RcuConfig rcu_cfg;
    rcu_cfg.gp_interval = std::chrono::microseconds(50);
    prudence::RcuDomain domain(rcu_cfg);
    prudence::SlubAllocator* slub = nullptr;
    std::unique_ptr<prudence::Allocator> alloc =
        make_allocator(opt, domain, &slub);

    perturb::ModelChecker model;
    model.set_completed_provider(
        [&domain] { return domain.completed_epoch(); });
    perturb::ModelChecker::install(&model);
    inj.start(sites, opt.base_delay_ns);
    result.armed = sites;

    // A small slot table, so updates displace (and defer) objects from
    // the first few dozen on.
    constexpr std::size_t kSlots = 32;
    std::atomic<void*> slots[kSlots] = {};

    auto updater = [&](unsigned id) {
        // A stable logical id keeps the thread's PCT priority
        // seed-pure.
        Injector::bind_thread(id);
        for (std::uint64_t k = 0; k < opt.ops; ++k) {
            void* obj = alloc->kmalloc(64);
            if (obj == nullptr)
                continue;
            // Publish, retire the displaced object through the
            // deferral path, and occasionally free immediately to mix
            // magazine refills with spills.
            void* old = slots[(id * 131 + k) % kSlots].exchange(
                obj, std::memory_order_acq_rel);
            if (old != nullptr)
                alloc->kfree_deferred(old);
            if ((k & 15) == 0) {
                if (void* extra = alloc->kmalloc(128))
                    alloc->kfree(extra);
            }
        }
        Injector::unbind_thread();
    };
    auto reader = [&](unsigned id) {
        Injector::bind_thread(id);
        for (std::uint64_t k = 0; k < opt.ops * 2; ++k) {
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
        Injector::unbind_thread();
    };

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < opt.updaters; ++i)
        threads.emplace_back(updater, i);
    for (unsigned i = 0; i < opt.readers; ++i)
        threads.emplace_back(reader, static_cast<unsigned>(opt.updaters) + i);
    for (auto& th : threads)
        th.join();

    // Retire the survivors through the deferral path, then quiesce
    // with the session (and the model) still on, so every identity
    // must hold exactly.
    for (auto& slot : slots) {
        if (void* p = slot.exchange(nullptr, std::memory_order_acq_rel))
            alloc->kfree_deferred(p);
    }
    alloc->quiesce();

    result.failures = quiesce_failures(*alloc, slub);

    const auto reports = settled_reports(seed);
    perturb::ModelChecker::install(nullptr);
    perturb::set_bug(perturb::BugId::kNone);
    result.violations = model.violations();
    if (fault_report(reports, seed, false) != 0)
        result.failures.push_back(
            "fault decision sequence diverged from offline replay");
    return result;
}

/// One quiet run of either mode (sweeps, replays and shrinking).
RunResult
run_once(const Options& opt, std::uint64_t seed, std::uint32_t sites)
{
    return opt.schedule ? run_schedule(opt, seed, sites)
                        : run_torture(opt, seed, sites, false);
}

// ---------------------------------------------------------------------
// Failures: replay line, shrinking, JSON report; the seed sweep and
// its self-test.
// ---------------------------------------------------------------------

std::string
replay_line(const Options& opt, std::uint64_t seed, std::uint32_t sites)
{
    std::string line = "prudtorture" + opt.replay_args;
    if (opt.lockfree_pcpu >= 0)
        line += " --lockfree-pcpu=" +
                std::to_string(opt.lockfree_pcpu != 0 ? 1 : 0);
    line += opt.schedule ? " --seed=" : " --fault-seed=";
    line += std::to_string(seed) + " --sites=" + perturb::mask_names(sites);
    if (opt.bug != perturb::BugId::kNone)
        line += std::string(" --bug=") + perturb::bug_name(opt.bug);
    return line;
}

void
print_failure(const Options& opt, std::uint64_t seed, const RunResult& r)
{
    for (const auto& what : r.failures)
        std::printf("prudtorture: FAILURE: %s\n", what.c_str());
    constexpr std::size_t kShown = 3;
    for (std::size_t i = 0; i < r.violations.size() && i < kShown; ++i) {
        const auto& v = r.violations[i];
        std::printf("prudtorture: FAILURE: model violation %s obj=%p "
                    "defer_epoch=%" PRIu64 " tag=%" PRIu64
                    " completed=%" PRIu64 "\n",
                    v.kind.c_str(), v.object, v.defer_epoch, v.tag,
                    v.completed);
    }
    if (r.violations.size() > kShown)
        std::printf("  (%zu more model violations)\n",
                    r.violations.size() - kShown);
    std::printf("  replay: %s\n", replay_line(opt, seed, r.armed).c_str());
}

/// Delta-debug the armed sites of a failing run down to a minimal
/// still-failing subset; two attempts per candidate absorb scheduling
/// noise, so a site is dropped only when the failure reproduces
/// without it.
std::uint32_t
shrink_failure(const Options& opt, std::uint64_t seed, std::uint32_t sites)
{
    return perturb::shrink_mask(sites, [&](std::uint32_t candidate) {
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (run_once(opt, seed, candidate).failed()) {
                std::printf("  shrink: still fails with {%s}\n",
                            perturb::mask_names(candidate).c_str());
                return true;
            }
        }
        return false;
    });
}

void
write_failure_report(const Options& opt, std::uint64_t seed,
                     std::uint32_t shrunk, const RunResult& r)
{
    if (opt.report.empty())
        return;
    std::FILE* f = std::fopen(opt.report.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "prudtorture: cannot write %s\n",
                     opt.report.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n",
                 opt.schedule ? "schedule" : "fault");
    std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", seed);
    std::fprintf(f, "  \"sites\": \"%s\",\n",
                 perturb::mask_names(r.armed).c_str());
    std::fprintf(f, "  \"shrunk_sites\": \"%s\",\n",
                 perturb::mask_names(shrunk).c_str());
    std::fprintf(f, "  \"bug\": \"%s\",\n", perturb::bug_name(opt.bug));
    std::fprintf(f, "  \"magazine_capacity\": %zu,\n",
                 opt.magazine_capacity);
    std::fprintf(f, "  \"pcp_high_watermark\": %zu,\n",
                 opt.pcp_high_watermark);
    std::fprintf(f, "  \"violations\": %zu,\n", r.violations.size());
    std::fprintf(f, "  \"first_violation\": \"%s\",\n",
                 r.violations.empty() ? "" : r.violations[0].kind.c_str());
    std::fprintf(f, "  \"first_failure\": \"%s\",\n",
                 r.failures.empty() ? "" : r.failures[0].c_str());
    std::fprintf(f, "  \"replay\": \"%s\"\n",
                 replay_line(opt, seed, shrunk).c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
}

/// Report a failing run: failures, replay line, shrunk mask, JSON.
int
handle_failure(const Options& opt, std::uint64_t seed, const RunResult& r)
{
    print_failure(opt, seed, r);
    std::uint32_t shrunk = r.armed;
    if (opt.shrink && r.armed != 0) {
        shrunk = shrink_failure(opt, seed, r.armed);
        std::printf("minimal sites: {%s}\n",
                    perturb::mask_names(shrunk).c_str());
        std::printf("replay: %s\n", replay_line(opt, seed, shrunk).c_str());
    }
    write_failure_report(opt, seed, shrunk, r);
    return 1;
}

/// Sweep the schedule seeds until one fails. @return true (with the
/// seed and its result) on a failure, false when every seed is clean.
bool
sweep(const Options& opt, std::uint64_t* failing_seed, RunResult* failing)
{
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        const std::uint64_t seed = opt.seed_base + i;
        RunResult r = run_once(opt, seed, opt.sites);
        if (r.failed()) {
            std::printf("seed %" PRIu64 ": FAIL\n", seed);
            *failing_seed = seed;
            *failing = std::move(r);
            return true;
        }
        if ((i + 1) % 10 == 0)
            std::printf("  %" PRIu64 "/%" PRIu64 " seeds clean\n", i + 1,
                        opt.seeds);
    }
    return false;
}

/// Convict the armed bug within the seed budget, then replay the
/// seed. @return the failing seed (and its run in @p r), or 0 when
/// either step fails.
std::uint64_t
convict(const Options& opt, int step, RunResult& r)
{
    std::printf("[%d/7] sweeping up to %" PRIu64 " seeds with --bug=%s\n",
                step, opt.seeds, perturb::bug_name(opt.bug));
    std::uint64_t seed = 0;
    if (!sweep(opt, &seed, &r)) {
        std::printf("FAIL: deliberate bug not found within %" PRIu64
                    " seeds\n",
                    opt.seeds);
        return 0;
    }
    print_failure(opt, seed, r);
    std::printf("[%d/7] replaying seed %" PRIu64 "\n", step + 1, seed);
    RunResult replay = run_once(opt, seed, opt.sites);
    if (!replay.failed()) {
        std::printf("FAIL: seed %" PRIu64 " did not reproduce on replay\n",
                    seed);
        return 0;
    }
    std::printf("  reproduced (%zu violations)\n",
                replay.violations.size());
    return seed;
}

/// How many seeds of the sweep budget fail with @p sites armed.
std::uint64_t
failing_seeds(const Options& opt, std::uint32_t sites)
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < opt.seeds; ++i)
        n += run_once(opt, opt.seed_base + i, sites).failed() ? 1 : 0;
    return n;
}

/**
 * Prove the schedule sweep works: convict the stale-spill-tag bug,
 * replay and shrink its seed, show that the perturbation is what
 * convicts it, pass a clean sweep with the bug disarmed, then convict
 * the unprotected-depot-pop bug on the lock-free leg (the only leg
 * with a depot).
 */
int
self_test(const Options& opt)
{
    std::printf("prudtorture self-test\n");
    Options stale = opt;
    stale.bug = perturb::BugId::kStaleSpillTag;
    RunResult r;
    const std::uint64_t seed = convict(stale, 1, r);
    if (seed == 0)
        return 1;
    std::uint32_t shrunk = stale.sites;
    if (opt.shrink) {
        std::printf("[3/7] shrinking the site set\n");
        shrunk = shrink_failure(stale, seed, stale.sites);
        std::printf("  minimal sites: {%s}\n",
                    perturb::mask_names(shrunk).c_str());
    } else {
        std::printf("[3/7] shrink skipped (--no-shrink)\n");
    }
    write_failure_report(stale, seed, shrunk, r);

    // The bug also surfaces unperturbed, when a background grace
    // period happens to land inside a batch: one conviction alone
    // would not tell a working schedule from one that perturbs
    // nothing, so the schedule must convict on most seeds. The
    // unperturbed count is shown for contrast but not gated: on a
    // heavily loaded machine preemption alone can convict every seed.
    std::printf("[4/7] counting convictions with and without "
                "perturbation\n");
    const std::uint64_t perturbed = failing_seeds(stale, stale.sites);
    std::printf("  %" PRIu64 "/%" PRIu64 " seeds fail perturbed, %" PRIu64
                " with no site armed\n",
                perturbed, opt.seeds, failing_seeds(stale, 0));
    if (2 * perturbed <= opt.seeds) {
        std::printf("FAIL: the schedule convicts on too few seeds\n");
        return 1;
    }

    std::printf("[5/7] sweeping %" PRIu64 " seeds with the bug disarmed\n",
                opt.seeds);
    Options clean = opt;
    clean.bug = perturb::BugId::kNone;
    std::uint64_t clean_seed = 0;
    RunResult clean_r;
    if (sweep(clean, &clean_seed, &clean_r)) {
        print_failure(clean, clean_seed, clean_r);
        std::printf("FAIL: unmodified code failed under seed %" PRIu64
                    "\n",
                    clean_seed);
        return 1;
    }

    Options depot = opt;
    depot.bug = perturb::BugId::kUnprotectedDepotPop;
    depot.lockfree_pcpu = 1;
    const std::uint64_t depot_seed = convict(depot, 6, r);
    if (depot_seed == 0)
        return 1;
    std::printf("self-test PASS (bugs found at seeds %" PRIu64
                " and %" PRIu64 ", clean sweep clean)\n",
                seed, depot_seed);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse_options(argc, argv, opt))
        return 2;

    if (!opt.scenario.empty()) {
        prudence::RcuConfig rcu_cfg;
        rcu_cfg.gp_interval = std::chrono::microseconds(200);
        prudence::RcuDomain domain(rcu_cfg);
        prudence::SlubAllocator* slub = nullptr;
        auto alloc = make_allocator(opt, domain, &slub);
        arm_faults(opt, opt.fault_seed, opt.sites);
        return run_scenario_mode(opt, domain, *alloc, slub);
    }

    if (opt.self_test)
        return self_test(opt);

    if (opt.schedule && opt.seed == 0) {
        std::printf("prudtorture: sweeping %" PRIu64 " seeds from %" PRIu64
                    " (sites={%s}, bug=%s, mags=%zu, pcp=%zu)\n",
                    opt.seeds, opt.seed_base,
                    perturb::mask_names(opt.sites).c_str(),
                    perturb::bug_name(opt.bug), opt.magazine_capacity,
                    opt.pcp_high_watermark);
        std::uint64_t seed = 0;
        RunResult r;
        if (sweep(opt, &seed, &r))
            return handle_failure(opt, seed, r);
        std::printf("prudtorture: all %" PRIu64 " seeds clean\n",
                    opt.seeds);
        return 0;
    }

    const std::uint64_t seed = opt.schedule ? opt.seed : opt.fault_seed;
    RunResult r = opt.schedule ? run_schedule(opt, seed, opt.sites)
                               : run_torture(opt, seed, opt.sites, true);
    if (!r.failed()) {
        if (opt.schedule)
            std::printf("seed %" PRIu64 ": PASS\n", seed);
        else
            std::printf("\nprudtorture: SUCCESS (0 invariant violations)\n");
        return 0;
    }
    std::printf("\nprudtorture: %zu check(s) FAILED\n",
                r.failures.size() + r.violations.size());
    return handle_failure(opt, seed, r);
}
