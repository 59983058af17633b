/**
 * @file
 * prudtorture — rcutorture-style stress harness for the RCU–allocator
 * co-design.
 *
 * Mixed reader / updater / OOM-stress threads hammer one allocator
 * (Prudence or the SLUB baseline) under deterministic fault injection
 * for a configurable duration, then quiesce and check invariants:
 *
 *  - no use-after-reclaim: a deferred object carries a poison stamp
 *    (magic + defer epoch); if it comes back from the allocator while
 *    its grace period is still open, that is a premature reclamation.
 *  - readers only ever observe live or dying objects (never reused
 *    memory) inside read-side critical sections.
 *  - after quiescing, allocator self-validation passes, the buddy
 *    allocator's integrity check passes, no objects are live and no
 *    deferrals are outstanding (baseline: callback backlog drained).
 *  - fault-decision determinism: every site's live trigger count and
 *    decision fingerprint must equal the offline replay for the same
 *    (seed, policy, evaluation count) — the same --fault-seed provably
 *    makes the same decisions, whatever the thread interleaving.
 *
 * Exit status is 0 only when every check passes.
 *
 * `--scenario=<stock-name-or-file>` switches to scenario mode: the
 * server-style load engine (DESIGN.md §15) replays the scenario on
 * the chosen allocator, then the same quiesce-time invariants are
 * checked, plus an offline per-shard op-stream replay that must
 * reproduce the engine's request counts and fingerprints exactly.
 *
 * Typical runs:
 *   prudtorture --duration=30 --fault-seed=42
 *   prudtorture --allocator=slub --duration=10
 *   prudtorture --expect-stall --stall-threshold-ms=200 --duration=3
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
#include "fault/fault_injector.h"
#include "governor/governor.h"
#include "page/buddy_allocator.h"
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

using prudence::fault::FaultInjector;
using prudence::fault::SiteId;
using prudence::fault::SitePolicy;

struct Options
{
    double duration_s = 30.0;
    std::uint64_t fault_seed = 42;
    bool faults = true;
    double fault_rate = 0.02;
    unsigned readers = 4;
    unsigned updaters = 4;
    unsigned oom_threads = 1;
    std::string allocator = "prudence";
    std::size_t arena_mb = 32;
    std::size_t magazine_capacity = 32;
    std::size_t pcp_high_watermark = 32;
    std::size_t pcp_batch = 8;
    std::uint64_t stall_threshold_ms = 1000;
    /// Lock-free per-CPU caches + magazine depot (DESIGN.md §14):
    /// -1 = build default, 0 = legacy spinlock leg, 1 = lock-free leg.
    int lockfree_pcpu = -1;
    bool expect_stall = false;
    /// Stop after this many updates instead of after --duration
    /// (0 = duration-bounded).
    std::uint64_t ops = 0;
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
    /// kGovernorAction faults refuse a share of its dispatches — the
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
        "  --readers=N              reader threads (default 4)\n"
        "  --updaters=N             updater threads (default 4)\n"
        "  --oom-threads=N          OOM-stress threads (default 1)\n"
        "  --allocator=KIND         prudence | slub (default prudence)\n"
        "  --arena-mb=N             simulated physical memory "
        "(default 32)\n"
        "  --magazine-capacity=N    thread-local magazine depth, "
        "0 = off (default 32)\n"
        "  --pcp-high-watermark=N   per-CPU page-cache watermark, "
        "0 = off (default 32)\n"
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
        "                           torture and arm kGovernorAction "
        "refusal faults\n"
        "  --scenario=NAME|FILE     scenario mode: run the load engine "
        "on a stock\n"
        "                           scenario (burst|diurnal|churn) or "
        "a DSL file,\n"
        "                           then check invariants + replay "
        "audit\n"
        "  --unpaced                scenario mode: run the schedule "
        "as fast as\n"
        "                           possible (service-time latency "
        "only)\n"
        "  --scenario-threads=N     scenario mode: engine threads "
        "(default: one\n"
        "                           per shard)\n"
        "  --scenario-duration-ms=N scenario mode: override the "
        "spec's scheduled\n"
        "                           duration\n",
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
        if (flag_value(argv[i], "--duration", &v))
            opt.duration_s = std::atof(v);
        else if (flag_value(argv[i], "--fault-seed", &v))
            opt.fault_seed = std::strtoull(v, nullptr, 0);
        else if (flag_value(argv[i], "--fault-rate", &v))
            opt.fault_rate = std::atof(v);
        else if (std::strcmp(argv[i], "--no-faults") == 0)
            opt.faults = false;
        else if (flag_value(argv[i], "--readers", &v))
            opt.readers = static_cast<unsigned>(std::atoi(v));
        else if (flag_value(argv[i], "--updaters", &v))
            opt.updaters = static_cast<unsigned>(std::atoi(v));
        else if (flag_value(argv[i], "--oom-threads", &v))
            opt.oom_threads = static_cast<unsigned>(std::atoi(v));
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
        else if (flag_value(argv[i], "--lockfree-pcpu", &v))
            opt.lockfree_pcpu = std::atoi(v);
        else if (flag_value(argv[i], "--stall-threshold-ms", &v))
            opt.stall_threshold_ms = std::strtoull(v, nullptr, 0);
        else if (std::strcmp(argv[i], "--expect-stall") == 0)
            opt.expect_stall = true;
        else if (flag_value(argv[i], "--ops", &v))
            opt.ops = std::strtoull(v, nullptr, 0);
        else if (std::strcmp(argv[i], "--deterministic") == 0)
            opt.deterministic = true;
        else if (flag_value(argv[i], "--report-json", &v))
            opt.report_json = v;
        else if (std::strcmp(argv[i], "--prudstat") == 0)
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
        else {
            usage(argv[0]);
            return false;
        }
    }
    if (opt.allocator != "prudence" && opt.allocator != "slub") {
        usage(argv[0]);
        return false;
    }
    if (!opt.scenario.empty() &&
        (opt.deterministic || opt.expect_stall || opt.governor)) {
        std::fprintf(stderr,
                     "prudtorture: --scenario excludes --deterministic, "
                     "--expect-stall and --governor\n");
        return false;
    }
    if (opt.deterministic) {
        if (opt.allocator != "prudence") {
            std::fprintf(stderr,
                         "prudtorture: --deterministic requires "
                         "--allocator=prudence (the SLUB baseline's "
                         "callback drainer is a free-running thread)\n");
            return false;
        }
        if (opt.expect_stall) {
            std::fprintf(stderr,
                         "prudtorture: --deterministic excludes "
                         "--expect-stall (no background GP thread to "
                         "stall)\n");
            return false;
        }
        if (opt.governor) {
            std::fprintf(stderr,
                         "prudtorture: --deterministic excludes "
                         "--governor (the monitor sampler and governor "
                         "loop are free-running threads)\n");
            return false;
        }
        // Exactly one mutator, nothing racing it: every fault-site
        // evaluation happens at a fixed position in program order.
        opt.updaters = 1;
        opt.readers = 0;
        opt.oom_threads = 0;
        if (opt.ops == 0)
            opt.ops = 50000;
    }
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

    Torture(const Options& o, prudence::RcuDomain& d,
            prudence::Allocator& a, std::size_t nslots)
        : opt(o), domain(d), alloc(a), slots(nslots)
    {
    }
};

void
updater_main(Torture& t, unsigned id)
{
    std::mt19937_64 rng(t.opt.fault_seed * 1000003 + id);
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
    std::mt19937_64 rng(t.opt.fault_seed * 7000003 + id);
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
    std::mt19937_64 rng(t.opt.fault_seed * 9000017 + id);
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

void
arm_faults(const Options& opt)
{
    FaultInjector& fi = FaultInjector::instance();
    fi.reset(opt.fault_seed);
    if (!opt.faults)
        return;

    SitePolicy prob;
    prob.probability = opt.fault_rate;
    fi.arm(SiteId::kBuddyAlloc, prob);
    fi.arm(SiteId::kPcpRefill, prob);
    fi.arm(SiteId::kSlabGrow, prob);
    fi.arm(SiteId::kRefillFail, prob);
    fi.arm(SiteId::kLatentStarve, prob);

    SitePolicy slow;
    slow.probability = std::min(1.0, opt.fault_rate * 5.0);
    fi.arm(SiteId::kSlowPath, slow);

    SitePolicy drain;
    drain.every_nth = 5;
    fi.arm(SiteId::kDrainerStall, drain);

    SitePolicy drop;
    drop.probability = 0.25;
    fi.arm(SiteId::kExpediteDrop, drop);

    if (opt.governor) {
        // Refuse a quarter of governor actuations: held-state
        // dispatches must retry until one lands, and the decision
        // audit below must still match the offline replay.
        SitePolicy refuse;
        refuse.probability = 0.25;
        fi.arm(SiteId::kGovernorAction, refuse);
    }

    if (opt.expect_stall) {
        // One long stall, well past the detector threshold; the run
        // then requires stalls_detected() >= 1.
        SitePolicy stall;
        stall.one_shot = true;
        stall.delay_ns = opt.stall_threshold_ms * 3 * 1000000ULL;
        fi.arm(SiteId::kGpDelay, stall);
    } else {
        SitePolicy gp;
        gp.every_nth = 64;
        gp.delay_ns = 500000;  // 0.5 ms: stretches GPs, below threshold
        fi.arm(SiteId::kGpDelay, gp);
    }
}

/// Print the live per-site report and cross-check it against the
/// offline replay. @return number of determinism mismatches.
int
fault_report(const std::vector<prudence::fault::SiteReport>& reports,
             std::uint64_t seed)
{
    int mismatches = 0;
    std::printf("\n--- fault sites (seed=%" PRIu64 ") ---\n", seed);
    std::printf("%-14s %12s %10s %18s  %s\n", "site", "evaluations",
                "triggers", "fingerprint", "replay");
    for (const auto& r : reports) {
        std::uint64_t exp_trig = FaultInjector::expected_triggers(
            seed, r.id, r.policy, r.evaluations);
        std::uint64_t exp_fp = FaultInjector::expected_fingerprint(
            seed, r.id, r.policy, r.evaluations);
        bool ok = exp_trig == r.triggers && exp_fp == r.fingerprint;
        if (!ok)
            ++mismatches;
        std::printf("%-14s %12" PRIu64 " %10" PRIu64 " 0x%016" PRIx64
                    "  %s\n",
                    prudence::fault::site_name(r.id), r.evaluations,
                    r.triggers, r.fingerprint,
                    ok ? "match" : "MISMATCH");
    }

    // Fixed-horizon decision audit: a pure function of the seed and
    // policies — byte-identical across runs with the same
    // --fault-seed, whatever the scheduler did.
    constexpr std::uint64_t kHorizon = 100000;
    std::printf("--- decision audit (horizon=%" PRIu64
                ", pure replay) ---\n",
                kHorizon);
    for (const auto& r : reports) {
        std::printf("%-14s triggers=%" PRIu64 " fingerprint=0x%016"
                    PRIx64 "\n",
                    prudence::fault::site_name(r.id),
                    FaultInjector::expected_triggers(seed, r.id,
                                                     r.policy, kHorizon),
                    FaultInjector::expected_fingerprint(
                        seed, r.id, r.policy, kHorizon));
    }
    return mismatches;
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
                  const std::vector<prudence::fault::SiteReport>& reports,
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
                     prudence::fault::site_name(r.id), r.evaluations,
                     r.triggers, r.fingerprint,
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
    FaultInjector& fi = FaultInjector::instance();
    auto reports = fi.report_all();
    fi.reset(opt.fault_seed);

    int failures = 0;
    auto fail = [&failures](const char* what) {
        std::fprintf(stderr, "prudtorture: FAILURE: %s\n", what);
        ++failures;
    };

    // The engine quiesced at teardown: exact accounting must hold.
    std::string verr = alloc.validate();
    if (!verr.empty()) {
        std::fprintf(stderr, "prudtorture: FAILURE: validate(): %s\n",
                     verr.c_str());
        ++failures;
    }
    if (!alloc.page_allocator().check_integrity())
        fail("buddy allocator integrity check failed");
    std::int64_t live = 0, deferred = 0;
    for (const auto& s : alloc.snapshots()) {
        live += s.live_objects;
        deferred += s.deferred_outstanding;
    }
    if (live != 0)
        fail("live objects remain after quiesce (leaked connections "
             "or published objects)");
    if (deferred != 0)
        fail("deferred objects remain after quiesce");
    if (slub != nullptr && slub->callback_stats().backlog != 0)
        fail("callback backlog remains after quiesce");
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

    int mismatches = fault_report(reports, opt.fault_seed);
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

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse_options(argc, argv, opt))
        return 2;

    prudence::RcuConfig rcu_cfg;
    rcu_cfg.gp_interval = std::chrono::microseconds(200);
    // Deterministic mode: no free-running GP thread — the updater
    // advances grace periods at fixed program-order points.
    rcu_cfg.background_gp_thread = !opt.deterministic;
    prudence::RcuDomain domain(rcu_cfg);

    std::unique_ptr<prudence::Allocator> alloc;
    prudence::SlubAllocator* slub = nullptr;
    if (opt.allocator == "slub") {
        prudence::SlubConfig cfg;
        cfg.arena_bytes = opt.arena_mb << 20;
        cfg.magazine_capacity = opt.magazine_capacity;
        cfg.pcp_high_watermark = opt.pcp_high_watermark;
        cfg.pcp_batch = opt.pcp_batch;
        if (opt.lockfree_pcpu >= 0)
            cfg.lockfree_pcpu = opt.lockfree_pcpu != 0;
        auto owned = std::make_unique<prudence::SlubAllocator>(domain, cfg);
        slub = owned.get();
        alloc = std::move(owned);
    } else {
        prudence::PrudenceConfig cfg;
        cfg.arena_bytes = opt.arena_mb << 20;
        cfg.magazine_capacity = opt.magazine_capacity;
        cfg.pcp_high_watermark = opt.pcp_high_watermark;
        cfg.pcp_batch = opt.pcp_batch;
        if (opt.lockfree_pcpu >= 0)
            cfg.lockfree_pcpu = opt.lockfree_pcpu != 0;
        if (opt.deterministic)
            cfg.maintenance_interval = std::chrono::microseconds(0);
        alloc =
            std::make_unique<prudence::PrudenceAllocator>(domain, cfg);
    }
    prudence::CacheId cache =
        alloc->create_cache("torture.obj", kTortureObjSize);

    prudence::StallDetectorConfig stall_cfg;
    stall_cfg.threshold =
        std::chrono::milliseconds(opt.stall_threshold_ms);
    prudence::StallDetector detector(domain, stall_cfg);

    // Arm faults only after construction so startup itself (arena
    // reservation, cache creation) is not perturbed.
    arm_faults(opt);

    if (!opt.scenario.empty())
        return run_scenario_mode(opt, domain, *alloc, slub);

    // Adaptive reclamation governor (DESIGN.md §13): a private 1 ms
    // monitor feeds the stock scheme list; the OOM ladder hands off
    // into the governor's terminal pressure level. With --governor the
    // kGovernorAction site refuses a share of dispatches, so the
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

    Torture t(opt, domain, *alloc, /*nslots=*/2048);
    t.cache = cache;

    if (opt.ops != 0)
        std::printf("prudtorture: allocator=%s arena=%zuMB readers=%u "
                    "updaters=%u oom-threads=%u ops=%" PRIu64
                    " deterministic=%s fault-seed=%" PRIu64
                    " faults=%s\n",
                    alloc->kind(), opt.arena_mb, opt.readers,
                    opt.updaters, opt.oom_threads, opt.ops,
                    opt.deterministic ? "yes" : "no", opt.fault_seed,
                    opt.faults ? "on" : "off");
    else
        std::printf("prudtorture: allocator=%s arena=%zuMB readers=%u "
                    "updaters=%u oom-threads=%u duration=%.1fs "
                    "fault-seed=%" PRIu64 " faults=%s\n",
                    alloc->kind(), opt.arena_mb, opt.readers,
                    opt.updaters, opt.oom_threads, opt.duration_s,
                    opt.fault_seed, opt.faults ? "on" : "off");

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

    // Stop the governor before the fault report: no kGovernorAction
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

    // Capture the live fault report, then disarm everything so the
    // quiesce/validate phase runs unperturbed.
    FaultInjector& fi = FaultInjector::instance();
    auto reports = fi.report_all();
    fi.reset(opt.fault_seed);

    // Drain the published objects (still live) and settle.
    for (auto& slot : t.slots) {
        if (TortureObj* obj = slot.exchange(nullptr))
            alloc->cache_free(cache, obj);
    }
    alloc->quiesce();

    // ---- invariant checks ----
    int failures = 0;
    auto fail = [&failures](const char* what) {
        std::fprintf(stderr, "prudtorture: FAILURE: %s\n", what);
        ++failures;
    };

    if (t.epoch_violations.load() != 0)
        fail("object reused before its grace period completed");
    if (t.reader_violations.load() != 0)
        fail("reader observed reclaimed memory in a read-side "
             "critical section");

    std::string verr = alloc->validate();
    if (!verr.empty()) {
        std::fprintf(stderr, "prudtorture: FAILURE: validate(): %s\n",
                     verr.c_str());
        ++failures;
    }
    if (!alloc->page_allocator().check_integrity())
        fail("buddy allocator integrity check failed");

    std::int64_t live = 0, deferred = 0;
    for (const auto& s : alloc->snapshots()) {
        live += s.live_objects;
        deferred += s.deferred_outstanding;
    }
    if (live != 0)
        fail("live objects remain after quiesce");
    if (deferred != 0)
        fail("deferred objects remain after quiesce");
    if (slub != nullptr && slub->callback_stats().backlog != 0)
        fail("callback backlog remains after quiesce");

    if (opt.expect_stall && detector.stalls_detected() == 0)
        fail("expected a grace-period stall; none detected");

    int mismatches = fault_report(reports, opt.fault_seed);
    if (mismatches != 0)
        fail("fault decision sequence diverged from offline replay");

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

    if (failures == 0) {
        std::printf("\nprudtorture: SUCCESS (0 invariant violations)\n");
        return 0;
    }
    std::fprintf(stderr, "\nprudtorture: %d check(s) FAILED\n",
                 failures);
    return 1;
}
