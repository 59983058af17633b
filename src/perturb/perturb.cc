#include "perturb/perturb.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

#include "trace/tracer.h"

namespace prudence::perturb {

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

/// Uniform [0,1) from the top 53 bits of @p h.
double
unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/**
 * Name and verdict-hash keys of every site. The hash takes a key, not
 * the enum value: fault policies hash with the site's id in the
 * fault-only registry that predates the merge, schedule policies with
 * its id in the yield-only one, so every decision sequence recorded
 * before the merge still replays bit for bit. A site new to a family
 * (key 0) hashes with 0x20 + its enum value, clear of both ranges.
 */
struct SiteInfo
{
    const char* name;
    std::uint8_t fault_key;
    std::uint8_t schedule_key;
};

constexpr SiteInfo kSites[] = {
    {"none", 0, 0},
    {"arena_map", 1, 0},
    {"buddy_alloc", 2, 0},
    {"pcp_refill", 3, 9},
    {"pcp_drain", 0, 10},
    {"slab_grow", 4, 0},
    {"gp_delay", 5, 0},
    {"gp_phase", 0, 11},
    {"gp_publish", 0, 12},
    {"drainer_stall", 6, 0},
    {"expedite_drop", 7, 0},
    {"cb_handoff", 0, 13},
    {"refill_fail", 8, 0},
    {"slow_path", 9, 0},
    {"latent_starve", 10, 0},
    {"mag_defer_buffer", 0, 2},
    {"mag_spill_tag", 0, 3},
    {"mag_flush", 0, 4},
    {"mag_refill", 0, 5},
    {"latent_push", 0, 6},
    {"latent_spill", 0, 7},
    {"latent_merge", 0, 8},
    {"depot_exchange", 0, 18},
    {"depot_harvest", 0, 19},
    {"spinlock_acquire", 0, 1},
    {"lf_stack_push", 0, 15},
    {"lf_stack_pop", 0, 16},
    {"lf_ring", 0, 17},
    {"governor_action", 11, 14},
};
static_assert(std::size(kSites) ==
              static_cast<std::size_t>(SiteId::kMaxSite));
static_assert(static_cast<unsigned>(SiteId::kMaxSite) <= 32,
              "site masks are 32-bit");

std::uint64_t
hash_key(SiteId site, bool schedule)
{
    const SiteInfo& info = kSites[static_cast<std::size_t>(site)];
    const std::uint8_t key = schedule ? info.schedule_key : info.fault_key;
    return key != 0 ? key : 0x20 + static_cast<std::uint64_t>(site);
}

/// Uniform [0,1) draw for arrival @p index at hash key @p key.
double
draw01(std::uint64_t seed, std::uint64_t key, std::uint64_t index)
{
    return unit(mix64(seed ^ mix64(key ^ (index << 16))));
}

/// Longest prefix scanned for a one-shot probability site's first
/// eligible index; beyond this the site simply never fires.
constexpr std::uint64_t kOneShotScanLimit = std::uint64_t{1} << 22;
constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

/// Fingerprint salts of the two policy families (kept from before the
/// merge, like the hash keys).
constexpr std::uint64_t kFaultSalt = 0xFA17FA11FEEDULL;
constexpr std::uint64_t kScheduleSalt = 0x5C4EDF0221ULL;

/// Of the perturbed schedule arrivals, this fraction sleeps
/// (priority-scaled); the rest merely yield the timeslice.
constexpr double kDelayFraction = 0.50;

/// Logical id shared by threads the harness never bound (GP thread,
/// drainers, maintenance). Chosen outside any harness range.
constexpr std::uint32_t kBackgroundThread = 0xB0B0B0B0u;

thread_local std::uint32_t t_logical_id = kBackgroundThread;

std::atomic<std::uint8_t> g_bug{0};

/// First eligible arrival under @p policy (bounded scan).
std::uint64_t
first_eligible(std::uint64_t seed, std::uint64_t key, const Policy& policy)
{
    if (policy.every_nth > 0)
        return policy.every_nth - 1;
    if (policy.probability > 0.0) {
        for (std::uint64_t n = 0; n < kOneShotScanLimit; ++n) {
            if (draw01(seed, key, n) < policy.probability)
                return n;
        }
        return kNoIndex;
    }
    // Bare one-shot: fire immediately.
    return 0;
}

/// Decision for arrival @p index, given the one-shot index the caller
/// precomputed (the live path must not rescan per arrival).
Decision
decide_at(std::uint64_t seed, std::uint64_t key, const Policy& policy,
          std::uint64_t index, std::uint64_t one_shot_index)
{
    Decision d;
    bool fired;
    if (policy.one_shot)
        fired = index == one_shot_index;
    else if (policy.every_nth > 0)
        fired = (index + 1) % policy.every_nth == 0;
    else
        fired = policy.probability > 0.0 &&
                draw01(seed, key, index) < policy.probability;
    if (!fired)
        return d;
    if (!policy.schedule) {
        d.action = Action::kFail;
        d.delay_ns = policy.delay_ns;
        return d;
    }
    // A second independent draw picks the flavor; the payload is a
    // deterministic 1x..4x spread so delays are not all identical.
    const std::uint64_t h =
        mix64(seed ^ 0xDE1A7ULL ^ mix64(key ^ (index << 8) ^ 1));
    if (unit(h) < kDelayFraction) {
        d.action = Action::kDelay;
        d.delay_ns = (1 + (h & 3)) * policy.delay_ns;
    } else {
        d.action = Action::kYield;
    }
    return d;
}

/// Order-independent fingerprint term of one decision: XOR commutes,
/// so the value after N arrivals is interleaving-invariant.
std::uint64_t
fingerprint_term(std::uint64_t seed, std::uint64_t key,
                 const Policy& policy, std::uint64_t index, Action action)
{
    const std::uint64_t code =
        policy.schedule ? static_cast<std::uint64_t>(action)
                        : (action != Action::kNone ? 1 : 0);
    return mix64(seed ^ (policy.schedule ? kScheduleSalt : kFaultSalt) ^
                 mix64(key ^ (index << 1) ^ code));
}

}  // namespace

const char*
site_name(SiteId id)
{
    const auto i = static_cast<std::size_t>(id);
    return i < std::size(kSites) ? kSites[i].name : "unknown";
}

SiteId
site_from_name(const char* name)
{
    for (std::size_t i = 1; i < std::size(kSites); ++i) {
        if (std::strcmp(kSites[i].name, name) == 0)
            return static_cast<SiteId>(i);
    }
    return SiteId::kNone;
}

std::uint32_t
schedule_sites()
{
    std::uint32_t mask = 0;
    for (std::size_t i = 1; i < std::size(kSites); ++i) {
        if (kSites[i].schedule_key != 0)
            mask |= site_bit(static_cast<SiteId>(i));
    }
    return mask;
}

std::string
mask_names(std::uint32_t mask)
{
    std::string out;
    for (std::size_t i = 1; i < std::size(kSites); ++i) {
        if (mask & site_bit(static_cast<SiteId>(i))) {
            if (!out.empty())
                out += ',';
            out += kSites[i].name;
        }
    }
    return out.empty() ? "none" : out;
}

bool
mask_from_names(const std::string& list, std::uint32_t& mask)
{
    std::uint32_t out = 0;
    std::size_t pos = list == "none" ? list.size() : 0;
    while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        SiteId id = site_from_name(list.substr(pos, comma - pos).c_str());
        if (id == SiteId::kNone)
            return false;
        out |= site_bit(id);
        pos = comma + 1;
    }
    mask = out;
    return true;
}

std::uint32_t
shrink_mask(std::uint32_t mask,
            const std::function<bool(std::uint32_t)>& fails)
{
    if (mask == 0 || fails(0))
        return 0;
    for (std::size_t i = 1; i < std::size(kSites); ++i) {
        const std::uint32_t bit = site_bit(static_cast<SiteId>(i));
        if ((mask & bit) == 0 || (mask & ~bit) == 0)
            continue;
        if (fails(mask & ~bit))
            mask &= ~bit;
    }
    return mask;
}

void
Injector::Site::store_policy(const Policy& p)
{
    probability.store(p.probability, std::memory_order_relaxed);
    every_nth.store(p.every_nth, std::memory_order_relaxed);
    one_shot.store(p.one_shot, std::memory_order_relaxed);
    delay_ns.store(p.delay_ns, std::memory_order_relaxed);
    schedule.store(p.schedule, std::memory_order_relaxed);
}

Policy
Injector::Site::load_policy() const
{
    Policy p;
    p.probability = probability.load(std::memory_order_relaxed);
    p.every_nth = every_nth.load(std::memory_order_relaxed);
    p.one_shot = one_shot.load(std::memory_order_relaxed);
    p.delay_ns = delay_ns.load(std::memory_order_relaxed);
    p.schedule = schedule.load(std::memory_order_relaxed);
    return p;
}

constinit Injector detail::g_injector;

void
Injector::zero_counters(Site& s)
{
    s.evaluations.store(0, std::memory_order_relaxed);
    s.fires.store(0, std::memory_order_relaxed);
    s.fingerprint.store(0, std::memory_order_relaxed);
}

void
Injector::reset(std::uint64_t seed)
{
    mask_.store(0, std::memory_order_release);
    seed_.store(seed, std::memory_order_relaxed);
    total_evals_.store(0, std::memory_order_relaxed);
    inversion_epoch_.store(0, std::memory_order_relaxed);
    for (Site& s : sites_) {
        s.store_policy(Policy{});
        zero_counters(s);
    }
}

void
Injector::arm(SiteId site, const Policy& policy)
{
    const auto idx = static_cast<std::size_t>(site);
    assert(idx > 0 && idx < kSiteCount);
    Site& s = sites_[idx];
    mask_.fetch_and(~site_bit(site), std::memory_order_acq_rel);
    s.store_policy(policy);
    zero_counters(s);
    s.one_shot_index.store(
        policy.one_shot
            ? first_eligible(seed(), hash_key(site, policy.schedule),
                             policy)
            : kNoIndex,
        std::memory_order_relaxed);
    mask_.fetch_or(site_bit(site), std::memory_order_release);
}

void
Injector::disarm(SiteId site)
{
    mask_.fetch_and(~site_bit(site), std::memory_order_acq_rel);
}

void
Injector::start(std::uint32_t mask, std::uint64_t base_delay_ns)
{
    // Seed-chosen inversion thresholds: schedule-arrival counts at
    // which every thread's priority is re-drawn (the PCT change
    // points). Spread over the first ~64k arrivals, which a
    // millisecond-scale seeded run comfortably reaches.
    for (unsigned i = 0; i < kInversionPoints; ++i)
        inversion_at_[i] = 1 + (mix64(seed() ^ (0xC4A6E0ULL + i)) & 0xFFFF);
    const Policy policy = schedule_policy(base_delay_ns);
    for (std::size_t i = 1; i < kSiteCount; ++i) {
        if (mask & site_bit(static_cast<SiteId>(i)))
            arm(static_cast<SiteId>(i), policy);
    }
    mask_.fetch_or(kSessionBit, std::memory_order_release);
}

void
Injector::stop()
{
    mask_.store(0, std::memory_order_release);
}

void
Injector::bind_thread(std::uint32_t logical_id)
{
    t_logical_id = logical_id;
}

void
Injector::unbind_thread()
{
    t_logical_id = kBackgroundThread;
}

unsigned
Injector::priority(std::uint64_t seed, std::uint32_t logical_id,
                   std::uint64_t inversion_epoch)
{
    return static_cast<unsigned>(
        mix64(seed ^ 0x9107ULL ^
              mix64(logical_id ^ (inversion_epoch << 32))) %
        (kMaxPriority + 1));
}

bool
Injector::arrive(SiteId site)
{
    if ((mask_.load(std::memory_order_acquire) & site_bit(site)) == 0)
        return false;
    Site& s = sites_[static_cast<std::size_t>(site)];
    // The arrival index is the only cross-thread coordination: the
    // decision for index k is a pure function of (seed, site, k).
    const std::uint64_t index =
        s.evaluations.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seed = this->seed();
    const Policy policy = s.load_policy();
    const std::uint64_t key = hash_key(site, policy.schedule);
    const Decision d =
        decide_at(seed, key, policy, index,
                  s.one_shot_index.load(std::memory_order_relaxed));
    s.fingerprint.fetch_xor(
        fingerprint_term(seed, key, policy, index, d.action),
        std::memory_order_relaxed);

    if (policy.schedule) {
        // Advance the PCT arrival clock and cross any pending
        // priority-inversion threshold. The epoch bump is monotone and
        // idempotent per threshold, so racing arrivals agree on it.
        const std::uint64_t total =
            total_evals_.fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t epoch =
            inversion_epoch_.load(std::memory_order_relaxed);
        if (epoch < kInversionPoints && total >= inversion_at_[epoch])
            inversion_epoch_.compare_exchange_strong(
                epoch, epoch + 1, std::memory_order_relaxed);
    }

    if (d.action == Action::kNone)
        return false;
    s.fires.fetch_add(1, std::memory_order_relaxed);
    switch (d.action) {
    case Action::kYield:
        std::this_thread::yield();
        return false;
    case Action::kDelay:
        // The decision and fingerprint above are thread-independent;
        // only the realized delay differs per thread, which is exactly
        // the PCT lever — low-priority threads dwell longer inside
        // race windows.
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            d.delay_ns
            << priority(seed, t_logical_id,
                        inversion_epoch_.load(std::memory_order_relaxed))));
        return false;
    default:
        PRUDENCE_TRACE_EMIT(trace::EventId::kFaultInject,
                            static_cast<std::uint64_t>(site), index);
        if (d.delay_ns > 0)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(d.delay_ns));
        return true;
    }
}

Decision
Injector::decide(std::uint64_t seed, SiteId site, const Policy& policy,
                 std::uint64_t index)
{
    const std::uint64_t key = hash_key(site, policy.schedule);
    return decide_at(
        seed, key, policy, index,
        policy.one_shot ? first_eligible(seed, key, policy) : kNoIndex);
}

std::uint64_t
Injector::expected_fires(std::uint64_t seed, SiteId site,
                         const Policy& policy, std::uint64_t evaluations)
{
    const std::uint64_t key = hash_key(site, policy.schedule);
    const std::uint64_t one_shot_index =
        policy.one_shot ? first_eligible(seed, key, policy) : kNoIndex;
    std::uint64_t fires = 0;
    for (std::uint64_t n = 0; n < evaluations; ++n)
        fires += decide_at(seed, key, policy, n, one_shot_index).action !=
                 Action::kNone;
    return fires;
}

std::uint64_t
Injector::expected_fingerprint(std::uint64_t seed, SiteId site,
                               const Policy& policy,
                               std::uint64_t evaluations)
{
    const std::uint64_t key = hash_key(site, policy.schedule);
    const std::uint64_t one_shot_index =
        policy.one_shot ? first_eligible(seed, key, policy) : kNoIndex;
    std::uint64_t fp = 0;
    for (std::uint64_t n = 0; n < evaluations; ++n)
        fp ^= fingerprint_term(
            seed, key, policy, n,
            decide_at(seed, key, policy, n, one_shot_index).action);
    return fp;
}

SiteReport
Injector::report(SiteId site) const
{
    const Site& s = sites_[static_cast<std::size_t>(site)];
    SiteReport r;
    r.id = site;
    r.policy = s.load_policy();
    r.armed = armed(site);
    r.evaluations = s.evaluations.load(std::memory_order_relaxed);
    r.fires = s.fires.load(std::memory_order_relaxed);
    r.fingerprint = s.fingerprint.load(std::memory_order_relaxed);
    return r;
}

std::vector<SiteReport>
Injector::report_all() const
{
    std::vector<SiteReport> out;
    for (std::size_t i = 1; i < kSiteCount; ++i) {
        SiteReport r = report(static_cast<SiteId>(i));
        if (r.armed || r.evaluations > 0)
            out.push_back(r);
    }
    return out;
}

void
set_bug(BugId bug)
{
    g_bug.store(static_cast<std::uint8_t>(bug), std::memory_order_release);
}

bool
bug_enabled(BugId bug)
{
    return bug != BugId::kNone &&
           g_bug.load(std::memory_order_acquire) ==
               static_cast<std::uint8_t>(bug);
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
    for (BugId bug : {BugId::kStaleSpillTag, BugId::kUnprotectedDepotPop}) {
        if (std::strcmp(name, bug_name(bug)) == 0)
            return bug;
    }
    return BugId::kNone;
}

}  // namespace prudence::perturb
