#include "sim/sim.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

namespace prudence::sim {

namespace {

/// splitmix64 — the standard 64-bit finalizer; decision quality only
/// needs decorrelation between (seed, site, index) tuples.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Uniform [0,1) draw for evaluation @p index of @p site.
double
draw01(std::uint64_t seed, YieldId site, std::uint64_t index)
{
    std::uint64_t h = mix64(
        seed ^ mix64(static_cast<std::uint64_t>(site) ^ (index << 16)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kFingerprintSalt = 0x5C4EDF0221ULL;

/// Perturbation rate per active yield-point arrival. High compared to
/// a fault probability on purpose: a schedule explorer wants dense
/// perturbation so a short run still covers many orderings; the delay
/// payload stays small so runs finish fast.
constexpr double kPerturbRate = 0.20;

/// Of the perturbed arrivals, this fraction sleeps (priority-scaled);
/// the rest merely yield the timeslice.
constexpr double kDelayFraction = 0.50;

/// Logical id shared by threads the harness never bound (GP thread,
/// drainers, maintenance). Chosen outside any harness range.
constexpr std::uint32_t kBackgroundThread = 0xB0B0B0B0u;

thread_local std::uint32_t t_logical_id = kBackgroundThread;
thread_local bool t_bound = false;

std::atomic<std::uint8_t> g_bug{0};

}  // namespace

const char*
yield_name(YieldId id)
{
    switch (id) {
    case YieldId::kNone:
        return "none";
    case YieldId::kSpinLockAcquire:
        return "spinlock_acquire";
    case YieldId::kMagDeferBuffer:
        return "mag_defer_buffer";
    case YieldId::kMagSpillTag:
        return "mag_spill_tag";
    case YieldId::kMagFlush:
        return "mag_flush";
    case YieldId::kMagRefill:
        return "mag_refill";
    case YieldId::kLatentPush:
        return "latent_push";
    case YieldId::kLatentSpill:
        return "latent_spill";
    case YieldId::kLatentMerge:
        return "latent_merge";
    case YieldId::kPcpRefill:
        return "pcp_refill";
    case YieldId::kPcpDrain:
        return "pcp_drain";
    case YieldId::kGpPhase:
        return "gp_phase";
    case YieldId::kGpPublish:
        return "gp_publish";
    case YieldId::kCbHandOff:
        return "cb_handoff";
    case YieldId::kGovernorActuate:
        return "governor_actuate";
    case YieldId::kLfStackPush:
        return "lf_stack_push";
    case YieldId::kLfStackPop:
        return "lf_stack_pop";
    case YieldId::kLfRing:
        return "lf_ring";
    case YieldId::kDepotExchange:
        return "depot_exchange";
    case YieldId::kDepotHarvest:
        return "depot_harvest";
    case YieldId::kMaxYield:
        break;
    }
    return "unknown";
}

YieldId
yield_from_name(const char* name)
{
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(YieldId::kMaxYield); ++i) {
        auto id = static_cast<YieldId>(i);
        if (std::strcmp(yield_name(id), name) == 0)
            return id;
    }
    return YieldId::kNone;
}

constinit Scheduler detail::g_scheduler;

void
Scheduler::reset(std::uint64_t seed)
{
    active_.store(false, std::memory_order_release);
    seed_.store(seed, std::memory_order_relaxed);
    site_mask_.store(0, std::memory_order_relaxed);
    base_delay_ns_.store(0, std::memory_order_relaxed);
    total_evals_.store(0, std::memory_order_relaxed);
    inversion_epoch_.store(0, std::memory_order_relaxed);
    for (Site& s : sites_) {
        s.evaluations.store(0, std::memory_order_relaxed);
        s.perturbations.store(0, std::memory_order_relaxed);
        s.fingerprint.store(0, std::memory_order_relaxed);
    }
}

void
Scheduler::start(std::uint32_t site_mask, std::uint64_t base_delay_ns)
{
    const std::uint64_t seed = seed_.load(std::memory_order_relaxed);
    // Seed-chosen inversion thresholds: total-evaluation counts at
    // which every thread's priority is re-drawn (the PCT change
    // points). Spread over the first ~64k arrivals, which a millisecond
    // scale schedfuzz run comfortably reaches.
    for (unsigned i = 0; i < kInversionPoints; ++i)
        inversion_at_[i] = 1 + (mix64(seed ^ (0xC4A6E0ULL + i)) & 0xFFFF);
    site_mask_.store(site_mask, std::memory_order_relaxed);
    base_delay_ns_.store(base_delay_ns, std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
}

void
Scheduler::stop()
{
    active_.store(false, std::memory_order_release);
}

void
Scheduler::bind_thread(std::uint32_t logical_id)
{
    t_logical_id = logical_id;
    t_bound = true;
}

void
Scheduler::unbind_thread()
{
    t_logical_id = kBackgroundThread;
    t_bound = false;
}

Decision
Scheduler::decide(std::uint64_t seed, YieldId site, std::uint64_t index)
{
    Decision d;
    const double roll = draw01(seed, site, index);
    if (roll >= kPerturbRate)
        return d;
    // A second independent draw picks the flavor; the payload is a
    // deterministic 1x..4x spread so delays are not all identical.
    const std::uint64_t h = mix64(
        seed ^ 0xDE1A7ULL ^
        mix64(static_cast<std::uint64_t>(site) ^ (index << 8) ^ 1));
    if (static_cast<double>(h >> 11) * 0x1.0p-53 < kDelayFraction) {
        d.action = Action::kDelay;
        d.delay_ns = 1 + (h & 3);  // scaled by base_delay_ns * 2^prio
    } else {
        d.action = Action::kYield;
    }
    return d;
}

unsigned
Scheduler::priority(std::uint64_t seed, std::uint32_t logical_id,
                    std::uint64_t inversion_epoch)
{
    return static_cast<unsigned>(
        mix64(seed ^ 0x9107ULL ^
              mix64(logical_id ^ (inversion_epoch << 32))) %
        (kMaxPriority + 1));
}

void
Scheduler::yield_point(YieldId site)
{
    if (!active_.load(std::memory_order_acquire))
        return;
    const std::uint32_t mask =
        site_mask_.load(std::memory_order_relaxed);
    if ((mask & yield_bit(site)) == 0)
        return;

    Site& s = sites_[static_cast<std::size_t>(site)];
    // The evaluation index is the only cross-thread coordination: the
    // verdict for index k is a pure function of (seed, site, k).
    const std::uint64_t index =
        s.evaluations.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t active_seed =
        seed_.load(std::memory_order_relaxed);
    const Decision d = decide(active_seed, site, index);

    // Order-independent decision fingerprint: XOR commutes, so the
    // value after N evaluations is interleaving-invariant.
    const std::uint64_t contrib = mix64(
        active_seed ^ kFingerprintSalt ^
        mix64(static_cast<std::uint64_t>(site) ^ (index << 1) ^
              static_cast<std::uint64_t>(d.action)));
    s.fingerprint.fetch_xor(contrib, std::memory_order_relaxed);

    // Advance the global arrival clock and cross any pending
    // priority-inversion threshold. The epoch bump is monotone and
    // idempotent per threshold, so racing arrivals agree on it.
    const std::uint64_t total =
        total_evals_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t epoch =
        inversion_epoch_.load(std::memory_order_relaxed);
    if (epoch < kInversionPoints && total >= inversion_at_[epoch]) {
        std::uint64_t expect = epoch;
        inversion_epoch_.compare_exchange_strong(
            expect, epoch + 1, std::memory_order_relaxed);
    }

    if (d.action == Action::kNone)
        return;
    s.perturbations.fetch_add(1, std::memory_order_relaxed);
    if (d.action == Action::kYield) {
        std::this_thread::yield();
        return;
    }
    // kDelay: sleep the payload scaled by this thread's priority. The
    // decision and fingerprint above are thread-independent; only the
    // realized delay differs per thread, which is exactly the PCT
    // lever — low-priority threads dwell longer inside race windows.
    const unsigned prio = priority(
        active_seed, t_logical_id,
        inversion_epoch_.load(std::memory_order_relaxed));
    const std::uint64_t ns =
        d.delay_ns * base_delay_ns_.load(std::memory_order_relaxed)
        << prio;
    if (ns > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

std::uint64_t
Scheduler::expected_fingerprint(std::uint64_t seed, YieldId site,
                                std::uint64_t evaluations)
{
    std::uint64_t fp = 0;
    for (std::uint64_t n = 0; n < evaluations; ++n) {
        const Decision d = decide(seed, site, n);
        fp ^= mix64(seed ^ kFingerprintSalt ^
                    mix64(static_cast<std::uint64_t>(site) ^ (n << 1) ^
                          static_cast<std::uint64_t>(d.action)));
    }
    return fp;
}

std::uint64_t
Scheduler::expected_perturbations(std::uint64_t seed, YieldId site,
                                  std::uint64_t evaluations)
{
    std::uint64_t count = 0;
    for (std::uint64_t n = 0; n < evaluations; ++n)
        count += decide(seed, site, n).action != Action::kNone ? 1 : 0;
    return count;
}

YieldReport
Scheduler::report(YieldId site) const
{
    const Site& s = sites_[static_cast<std::size_t>(site)];
    YieldReport r;
    r.id = site;
    r.evaluations = s.evaluations.load(std::memory_order_relaxed);
    r.perturbations = s.perturbations.load(std::memory_order_relaxed);
    r.fingerprint = s.fingerprint.load(std::memory_order_relaxed);
    return r;
}

std::vector<YieldReport>
Scheduler::report_all() const
{
    std::vector<YieldReport> out;
    for (std::size_t i = 1; i < kSiteCount; ++i) {
        YieldReport r = report(static_cast<YieldId>(i));
        if (r.evaluations > 0)
            out.push_back(r);
    }
    return out;
}

void
set_bug(BugId bug)
{
    g_bug.store(static_cast<std::uint8_t>(bug),
                std::memory_order_release);
}

bool
bug_enabled(BugId bug)
{
    return g_bug.load(std::memory_order_acquire) ==
           static_cast<std::uint8_t>(bug) &&
           bug != BugId::kNone;
}

const char*
bug_name(BugId bug)
{
    switch (bug) {
    case BugId::kNone:
        return "none";
    case BugId::kStaleSpillTag:
        return "stale-spill-tag";
    case BugId::kUnprotectedDepotPop:
        return "unprotected-depot-pop";
    }
    return "unknown";
}

BugId
bug_from_name(const char* name)
{
    if (std::strcmp(name, bug_name(BugId::kStaleSpillTag)) == 0)
        return BugId::kStaleSpillTag;
    if (std::strcmp(name,
                    bug_name(BugId::kUnprotectedDepotPop)) == 0)
        return BugId::kUnprotectedDepotPop;
    return BugId::kNone;
}

}  // namespace prudence::sim
