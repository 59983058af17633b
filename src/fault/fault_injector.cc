#include "fault/fault_injector.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "trace/tracer.h"

namespace prudence::fault {

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
draw01(std::uint64_t seed, SiteId site, std::uint64_t index)
{
    std::uint64_t h = mix64(
        seed ^ mix64(static_cast<std::uint64_t>(site) ^ (index << 16)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Longest prefix scanned for a one-shot probability site's first
/// eligible index; beyond this the site simply never fires.
constexpr std::uint64_t kOneShotScanLimit = std::uint64_t{1} << 22;

constexpr std::uint64_t kFingerprintSalt = 0xFA17FA11FEEDULL;

}  // namespace

const char*
site_name(SiteId id)
{
    switch (id) {
    case SiteId::kNone:
        return "none";
    case SiteId::kArenaMap:
        return "arena_map";
    case SiteId::kBuddyAlloc:
        return "buddy_alloc";
    case SiteId::kPcpRefill:
        return "pcp_refill";
    case SiteId::kSlabGrow:
        return "slab_grow";
    case SiteId::kGpDelay:
        return "gp_delay";
    case SiteId::kDrainerStall:
        return "drainer_stall";
    case SiteId::kExpediteDrop:
        return "expedite_drop";
    case SiteId::kRefillFail:
        return "refill_fail";
    case SiteId::kSlowPath:
        return "slow_path";
    case SiteId::kLatentStarve:
        return "latent_starve";
    case SiteId::kGovernorAction:
        return "governor_action";
    case SiteId::kMaxSite:
        break;
    }
    return "unknown";
}

void
FaultInjector::Site::store_policy(const SitePolicy& p)
{
    probability.store(p.probability, std::memory_order_relaxed);
    every_nth.store(p.every_nth, std::memory_order_relaxed);
    one_shot.store(p.one_shot, std::memory_order_relaxed);
    delay_ns.store(p.delay_ns, std::memory_order_relaxed);
}

SitePolicy
FaultInjector::Site::load_policy() const
{
    SitePolicy p;
    p.probability = probability.load(std::memory_order_relaxed);
    p.every_nth = every_nth.load(std::memory_order_relaxed);
    p.one_shot = one_shot.load(std::memory_order_relaxed);
    p.delay_ns = delay_ns.load(std::memory_order_relaxed);
    return p;
}

constinit FaultInjector detail::g_injector;

void
FaultInjector::reset(std::uint64_t seed)
{
    seed_.store(seed, std::memory_order_relaxed);
    for (Site& s : sites_) {
        s.armed.store(false, std::memory_order_relaxed);
        s.store_policy(SitePolicy{});
        s.evaluations.store(0, std::memory_order_relaxed);
        s.triggers.store(0, std::memory_order_relaxed);
        s.fingerprint.store(0, std::memory_order_relaxed);
        s.one_shot_index.store(kNoIndex, std::memory_order_relaxed);
    }
    armed_sites_.store(0, std::memory_order_release);
}

std::uint64_t
FaultInjector::first_eligible(std::uint64_t seed, SiteId site,
                              const SitePolicy& policy)
{
    if (policy.every_nth > 0)
        return policy.every_nth - 1;
    if (policy.probability > 0.0) {
        for (std::uint64_t n = 0; n < kOneShotScanLimit; ++n) {
            if (draw01(seed, site, n) < policy.probability)
                return n;
        }
        return kNoIndex;
    }
    // Bare one-shot: fire immediately.
    return 0;
}

void
FaultInjector::arm(SiteId site, const SitePolicy& policy)
{
    auto idx = static_cast<std::size_t>(site);
    assert(idx > 0 && idx < kSiteCount);
    Site& s = sites_[idx];
    bool was_armed = s.armed.exchange(false, std::memory_order_acq_rel);
    s.store_policy(policy);
    s.evaluations.store(0, std::memory_order_relaxed);
    s.triggers.store(0, std::memory_order_relaxed);
    s.fingerprint.store(0, std::memory_order_relaxed);
    s.one_shot_index.store(policy.one_shot
                               ? first_eligible(seed(), site, policy)
                               : kNoIndex,
                           std::memory_order_relaxed);
    s.armed.store(true, std::memory_order_release);
    if (!was_armed)
        armed_sites_.fetch_add(1, std::memory_order_acq_rel);
}

void
FaultInjector::disarm(SiteId site)
{
    Site& s = sites_[static_cast<std::size_t>(site)];
    if (s.armed.exchange(false, std::memory_order_acq_rel))
        armed_sites_.fetch_sub(1, std::memory_order_acq_rel);
}

bool
FaultInjector::armed(SiteId site) const
{
    return sites_[static_cast<std::size_t>(site)].armed.load(
        std::memory_order_acquire);
}

bool
FaultInjector::decide(std::uint64_t seed, SiteId site,
                      const SitePolicy& policy, std::uint64_t index)
{
    if (policy.one_shot)
        return index == first_eligible(seed, site, policy);
    if (policy.every_nth > 0)
        return (index + 1) % policy.every_nth == 0;
    if (policy.probability > 0.0)
        return draw01(seed, site, index) < policy.probability;
    return false;
}

bool
FaultInjector::should_fire(SiteId site)
{
    Site& s = sites_[static_cast<std::size_t>(site)];
    if (!s.armed.load(std::memory_order_acquire))
        return false;

    // The evaluation index is the only cross-thread coordination: the
    // verdict for index k is a pure function of (seed, site, k).
    std::uint64_t index =
        s.evaluations.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t active_seed = seed();
    const SitePolicy policy = s.load_policy();
    bool fired;
    if (policy.one_shot) {
        fired =
            index == s.one_shot_index.load(std::memory_order_relaxed);
    } else {
        fired = decide(active_seed, site, policy, index);
    }

    // Order-independent decision fingerprint: XOR commutes, so the
    // value after N evaluations is interleaving-invariant.
    std::uint64_t contrib =
        mix64(active_seed ^ kFingerprintSalt ^
              mix64(static_cast<std::uint64_t>(site) ^ (index << 1) ^
                    (fired ? 1 : 0)));
    s.fingerprint.fetch_xor(contrib, std::memory_order_relaxed);

    if (fired) {
        s.triggers.fetch_add(1, std::memory_order_relaxed);
        PRUDENCE_TRACE_EMIT(trace::EventId::kFaultInject,
                            static_cast<std::uint64_t>(site), index);
    }
    return fired;
}

std::uint64_t
FaultInjector::delay_ns(SiteId site) const
{
    const Site& s = sites_[static_cast<std::size_t>(site)];
    return s.armed.load(std::memory_order_acquire)
               ? s.delay_ns.load(std::memory_order_relaxed)
               : 0;
}

std::uint64_t
FaultInjector::expected_triggers(std::uint64_t seed, SiteId site,
                                 const SitePolicy& policy,
                                 std::uint64_t evaluations)
{
    if (policy.one_shot)
        return first_eligible(seed, site, policy) < evaluations ? 1 : 0;
    if (policy.every_nth > 0)
        return evaluations / policy.every_nth;
    std::uint64_t triggers = 0;
    for (std::uint64_t n = 0; n < evaluations; ++n)
        triggers += decide(seed, site, policy, n) ? 1 : 0;
    return triggers;
}

std::uint64_t
FaultInjector::expected_fingerprint(std::uint64_t seed, SiteId site,
                                    const SitePolicy& policy,
                                    std::uint64_t evaluations)
{
    std::uint64_t one_shot_index =
        policy.one_shot ? first_eligible(seed, site, policy) : kNoIndex;
    std::uint64_t fp = 0;
    for (std::uint64_t n = 0; n < evaluations; ++n) {
        bool fired = policy.one_shot ? n == one_shot_index
                                     : decide(seed, site, policy, n);
        fp ^= mix64(seed ^ kFingerprintSalt ^
                    mix64(static_cast<std::uint64_t>(site) ^ (n << 1) ^
                          (fired ? 1 : 0)));
    }
    return fp;
}

SiteReport
FaultInjector::report(SiteId site) const
{
    const Site& s = sites_[static_cast<std::size_t>(site)];
    SiteReport r;
    r.id = site;
    r.policy = s.load_policy();
    r.armed = s.armed.load(std::memory_order_acquire);
    r.evaluations = s.evaluations.load(std::memory_order_relaxed);
    r.triggers = s.triggers.load(std::memory_order_relaxed);
    r.fingerprint = s.fingerprint.load(std::memory_order_relaxed);
    return r;
}

std::vector<SiteReport>
FaultInjector::report_all() const
{
    std::vector<SiteReport> out;
    for (std::size_t i = 1; i < kSiteCount; ++i) {
        SiteReport r = report(static_cast<SiteId>(i));
        if (r.armed || r.evaluations > 0)
            out.push_back(r);
    }
    return out;
}

namespace detail {
void
stall_ns(std::uint64_t ns)
{
    if (ns > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}
}  // namespace detail

}  // namespace prudence::fault
