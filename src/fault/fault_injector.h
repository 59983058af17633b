/**
 * @file
 * Deterministic fault injection for the RCU–allocator co-design.
 *
 * The paper's argument rests on pathological interactions — bursty
 * deferred frees, throttled callback processing, extended lifetimes
 * under memory pressure — that well-behaved benchmarks never reach.
 * This subsystem lets tests and the `prudtorture` harness force those
 * paths on demand, the way failslab/fail_page_alloc and rcutorture do
 * for the kernel.
 *
 * Design:
 *  - Named injection sites (SiteId) compiled into the subsystems via
 *    the PRUDENCE_FAULT_* macros below.
 *  - Per-site policies: probability, every-Nth, one-shot — plus an
 *    optional delay payload for stall-style sites.
 *  - Seed determinism: the verdict of the k-th evaluation of a site
 *    under seed s is a pure function decide(s, site, k, policy),
 *    independent of which thread performs it and of wall-clock time.
 *    Each site keeps an order-independent fingerprint of its decision
 *    sequence, so two runs that evaluate a site the same number of
 *    times under the same seed provably made identical decisions.
 *    The static expected_*() replay helpers recompute triggers and
 *    fingerprints offline; prudtorture prints both tables and fails
 *    when they diverge.
 *
 * Cost model (mirrors src/trace/):
 *  - Nothing armed: one relaxed atomic load per site.
 *  - Armed: a fetch_add, one splitmix64 hash and a fingerprint XOR.
 */
#ifndef PRUDENCE_FAULT_FAULT_INJECTOR_H
#define PRUDENCE_FAULT_FAULT_INJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace prudence::fault {

/// Every injection site wired into the tree. Names are stable (they
/// appear in prudtorture reports and test assertions).
enum class SiteId : std::uint16_t {
    kNone = 0,

    // page/ — the hard memory boundary.
    kArenaMap,    ///< Arena::create: reservation fails at startup
    kBuddyAlloc,  ///< BuddyAllocator::alloc_pages: simulated OOM
    kPcpRefill,   ///< per-CPU page-cache refill refused (forces the
                  ///< single-block global fallback path)

    // slab/ — slab-cache growth.
    kSlabGrow,  ///< SlabPool::grow: refused (refill failure upstream)

    // rcu/ — grace-period and callback pathologies.
    kGpDelay,       ///< advance(): stall before the reader wait
    kDrainerStall,  ///< drainer tick skipped (throttled processing)
    kExpediteDrop,  ///< expedited tick demoted to the normal limit

    // core/ + slub/ — allocator slow paths.
    kRefillFail,    ///< object-cache refill fails (forced OOM path)
    kSlowPath,      ///< fast-path cache pop suppressed
    kLatentStarve,  ///< latent merge suppressed (starved latent ring)

    // governor/ — reclamation-governor actuations.
    kGovernorAction,  ///< actuator dispatch refused (stuck actuation:
                      ///< the desired state is retried next round and
                      ///< the OOM ladder remains the backstop)

    kMaxSite
};

/// Stable report/CLI name of @p id ("buddy_alloc", "gp_delay", ...).
const char* site_name(SiteId id);

/// When and how a site fires.
struct SitePolicy
{
    /// Fire with this probability per evaluation (used when
    /// every_nth == 0).
    double probability = 0.0;
    /// Fire on every Nth evaluation (0 = use probability instead).
    std::uint64_t every_nth = 0;
    /// Fire on the first otherwise-eligible evaluation only.
    bool one_shot = false;
    /// Stall payload for delay-style sites (kGpDelay, kDrainerStall).
    std::uint64_t delay_ns = 0;
};

/// Point-in-time activity of one site.
struct SiteReport
{
    SiteId id = SiteId::kNone;
    SitePolicy policy;
    bool armed = false;
    std::uint64_t evaluations = 0;
    std::uint64_t triggers = 0;
    /// XOR-combined hash of every (index, verdict) pair — a pure
    /// function of (seed, policy, evaluations), whatever the thread
    /// interleaving was.
    std::uint64_t fingerprint = 0;
};

/**
 * The injector. Normally used through the process-wide instance() and
 * the macros below, but freely constructible so unit tests can run
 * isolated instances.
 */
class FaultInjector
{
  public:
    constexpr FaultInjector() = default;

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /// Process-wide instance the macros evaluate against.
    static FaultInjector& instance();

    /**
     * Disarm every site, zero every counter and fingerprint, and set
     * the decision seed. Call before arming sites for a run.
     */
    void reset(std::uint64_t seed);

    /// The active decision seed.
    std::uint64_t
    seed() const
    {
        return seed_.load(std::memory_order_relaxed);
    }

    /// Arm @p site with @p policy (counters for the site are zeroed).
    void arm(SiteId site, const SitePolicy& policy);

    /// Disarm @p site (counters are kept for reporting).
    void disarm(SiteId site);

    /// True iff any site is armed (the macros' relaxed fast gate).
    bool
    any_armed() const
    {
        return armed_sites_.load(std::memory_order_relaxed) != 0;
    }

    /// True iff @p site is armed.
    bool armed(SiteId site) const;

    /**
     * Evaluate @p site: count the evaluation and return whether the
     * fault fires. The verdict of the k-th evaluation is a pure
     * function of (seed, site, k, policy).
     */
    bool should_fire(SiteId site);

    /// Delay payload of @p site (0 when unarmed).
    std::uint64_t delay_ns(SiteId site) const;

    /// Activity of @p site.
    SiteReport report(SiteId site) const;

    /// Activity of every site that is armed or was ever evaluated.
    std::vector<SiteReport> report_all() const;

    // ---- offline replay (the determinism contract) ----

    /// Verdict of evaluation @p index of @p site under @p seed.
    static bool decide(std::uint64_t seed, SiteId site,
                       const SitePolicy& policy, std::uint64_t index);

    /// Triggers after @p evaluations evaluations (pure replay).
    static std::uint64_t expected_triggers(std::uint64_t seed,
                                           SiteId site,
                                           const SitePolicy& policy,
                                           std::uint64_t evaluations);

    /// Fingerprint after @p evaluations evaluations (pure replay).
    static std::uint64_t expected_fingerprint(std::uint64_t seed,
                                              SiteId site,
                                              const SitePolicy& policy,
                                              std::uint64_t evaluations);

  private:
    static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};
    static constexpr std::size_t kSiteCount =
        static_cast<std::size_t>(SiteId::kMaxSite);

    /// Per-site state. The policy is stored field-by-field in atomics
    /// so reset()/arm() on one thread never data-race with a
    /// should_fire() in flight on another: arm() publishes the policy
    /// before the release store of `armed`, and the relaxed loads
    /// compile to plain loads on the hot path. A should_fire that
    /// overlaps a disarm/reset may mix old and new fields, which is
    /// fine — the site is being shut down and its counters rezeroed.
    struct Site
    {
        std::atomic<double> probability{0.0};
        std::atomic<std::uint64_t> every_nth{0};
        std::atomic<bool> one_shot{false};
        std::atomic<std::uint64_t> delay_ns{0};
        std::atomic<bool> armed{false};
        /// Index assigned to the site's next evaluation.
        std::atomic<std::uint64_t> evaluations{0};
        std::atomic<std::uint64_t> triggers{0};
        std::atomic<std::uint64_t> fingerprint{0};
        /// Index of the single firing evaluation under one_shot
        /// (precomputed at arm time; kNoIndex = never).
        std::atomic<std::uint64_t> one_shot_index{kNoIndex};

        void store_policy(const SitePolicy& policy);
        SitePolicy load_policy() const;
    };

    /// First eligible evaluation index under @p policy (bounded scan).
    static std::uint64_t first_eligible(std::uint64_t seed, SiteId site,
                                        const SitePolicy& policy);

    std::atomic<std::uint64_t> seed_{0};
    std::array<Site, kSiteCount> sites_;
    /// Count of armed sites (fast gate; relaxed).
    std::atomic<std::uint32_t> armed_sites_{0};
};

namespace detail {
/// The process-wide injector. Constant-initialised and trivially
/// destructible, so it is usable from any static initialiser or
/// destructor and needs no guard.
extern constinit FaultInjector g_injector;
}  // namespace detail

inline FaultInjector&
FaultInjector::instance()
{
    return detail::g_injector;
}

}  // namespace prudence::fault

// ---------------------------------------------------------------------
// Injection-site macros — the only spelling instrumented code uses.
// ---------------------------------------------------------------------

/// Boolean fault point: true when the named site fires.
/// Usage: if (PRUDENCE_FAULT_POINT(kBuddyAlloc)) return nullptr;
#define PRUDENCE_FAULT_POINT(site)                                     \
    (::prudence::fault::FaultInjector::instance().any_armed() &&       \
     ::prudence::fault::FaultInjector::instance().should_fire(         \
         ::prudence::fault::SiteId::site))

/// Stall fault point: sleeps for the site's configured delay when it
/// fires (delay-style sites: grace-period or drainer stalls).
#define PRUDENCE_FAULT_STALL(site)                                     \
    do {                                                               \
        if (PRUDENCE_FAULT_POINT(site))                                \
            ::prudence::fault::detail::stall_ns(                       \
                ::prudence::fault::FaultInjector::instance().delay_ns( \
                    ::prudence::fault::SiteId::site));                 \
    } while (0)

namespace prudence::fault::detail {
/// Sleep helper used by PRUDENCE_FAULT_STALL (out of line so the
/// macro does not pull <thread> into every instrumented TU).
void stall_ns(std::uint64_t ns);
}  // namespace prudence::fault::detail

#endif  // PRUDENCE_FAULT_FAULT_INJECTOR_H
