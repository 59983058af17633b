/**
 * @file
 * Deterministic perturbation for the RCU–allocator co-design: fault
 * injection and schedule fuzzing through one registry of named sites
 * (DESIGN.md §8).
 *
 * The paper's argument rests on pathological interactions — throttled
 * callback processing, bursty deferred frees, reuse racing a grace
 * period — that well-behaved benchmarks and the OS scheduler never
 * reach. Named sites compiled into the subsystems let tests and the
 * `prudtorture` harness force them on demand, the way
 * failslab/fail_page_alloc and rcutorture do for the kernel, and
 * perturb the cross-thread race windows in the spirit of PCT
 * (probabilistic concurrency testing) and rr's chaos mode.
 *
 * Design:
 *  - One SiteId per site, wired in through the PRUDENCE_FAULT_POINT /
 *    PRUDENCE_PERTURB_POINT macros below. A site's Policy says when it
 *    fires (probability, every-Nth, one-shot) and what a firing
 *    arrival does: fail (the fault point returns true, after an
 *    optional stall), or — under the schedule policy — yield the
 *    timeslice or sleep a PCT priority-scaled delay.
 *  - Seed determinism: the decision for the k-th arrival at a site is
 *    a pure function decide(seed, site, policy, k), independent of
 *    which thread arrives and of wall-clock time. Each site keeps an
 *    order-independent XOR fingerprint of its decisions, so two runs
 *    that evaluate a site equally often under one seed provably made
 *    identical decisions; the static expected_*() helpers recompute
 *    fires and fingerprints offline.
 *  - PCT priorities: each harness-bound thread carries a priority
 *    drawn from (seed, logical id, inversion epoch). A scheduled delay
 *    is scaled by 2^priority, and a few seed-chosen arrival counts
 *    re-draw every priority mid-run, so a low-priority thread can
 *    suddenly outrun the rest — the PCT recipe for depth-d bugs.
 *  - The armed-site mask is the gate. Idle (or armed elsewhere): one
 *    relaxed load of the constant-initialised injector and a bit test.
 *    Armed: a fetch_add, one splitmix64 hash, a fingerprint XOR and
 *    the decided stall, sleep or yield.
 */
#ifndef PRUDENCE_PERTURB_PERTURB_H
#define PRUDENCE_PERTURB_PERTURB_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace prudence::perturb {

/// Every site wired into the tree, grouped by layer. Names are stable
/// (they appear in prudtorture reports, replay lines and tests); the
/// catalogue with each site's action is DESIGN.md §8.
enum class SiteId : std::uint8_t {
    kNone = 0,

    // page/
    kArenaMap,    ///< Arena::create: reservation fails at startup
    kBuddyAlloc,  ///< BuddyAllocator::alloc_pages: simulated OOM
    kPcpRefill,   ///< per-CPU page-cache refill, before the global
                  ///< pops: refused (single-block fallback) or delayed
    kPcpDrain,    ///< between unhooking a stash batch and the global push

    // slab/
    kSlabGrow,  ///< SlabPool::grow: refused (refill failure upstream)

    // rcu/
    kGpDelay,       ///< advance(): stall before the reader wait
    kGpPhase,       ///< between GP phase-1 and phase-2 reader waits
    kGpPublish,     ///< after the reader waits, before completed_epoch
                    ///< is published
    kDrainerStall,  ///< drainer tick skipped (throttled processing)
    kExpediteDrop,  ///< expedited tick demoted to the normal limit
    kCbHandOff,     ///< between collecting a callback batch and
                    ///< invoking it

    // core/ + slub/
    kRefillFail,      ///< object-cache refill fails (forced OOM path)
    kSlowPath,        ///< fast-path cache pop suppressed
    kLatentStarve,    ///< latent merge suppressed (starved latent ring)
    kMagDeferBuffer,  ///< between buffering a deferral and the next op
    kMagSpillTag,     ///< between the batch defer_epoch() read and the
                      ///< latent pushes it tags
    kMagFlush,        ///< magazine -> per-CPU flush hand-off
    kMagRefill,       ///< per-CPU -> magazine refill hand-off
    kLatentPush,      ///< after the epoch read, before the latent push
    kLatentSpill,     ///< between taking a latent spill batch and the
                      ///< node-lock pushes
    kLatentMerge,     ///< after reading completed_epoch, before merging
    kDepotExchange,   ///< between filling/draining a depot block and
                      ///< the CAS that exchanges custody
    kDepotHarvest,    ///< between reading a deferred block's epoch and
                      ///< claiming its objects for reuse

    // sync/
    kSpinLockAcquire,  ///< SpinLock::lock: before the acquire attempt
    kLfStackPush,      ///< between reading the stack head and the CAS
    kLfStackPop,       ///< between reading head->next and the pop CAS
    kLfRing,           ///< between claiming a ring cell and publishing

    // governor/
    kGovernorAction,  ///< actuator dispatch: refused (stuck actuation,
                      ///< retried next round) or delayed against
                      ///< allocator traffic and quiesce

    kMaxSite
};

/// Stable report/CLI name of @p id ("buddy_alloc", "gp_publish", ...).
const char* site_name(SiteId id);

/// Parse a stable name back to its id (kNone when unknown).
SiteId site_from_name(const char* name);

/// Bit for @p id in a site mask.
constexpr std::uint32_t
site_bit(SiteId id)
{
    return std::uint32_t{1} << static_cast<unsigned>(id);
}

/// Bit 0 of the armed mask (kNone's bit): a schedule session is
/// running, so model-checker hooks and deliberate bugs are live.
constexpr std::uint32_t kSessionBit = site_bit(SiteId::kNone);

/// Mask with every site.
constexpr std::uint32_t
all_sites()
{
    return ((std::uint32_t{1}
             << static_cast<unsigned>(SiteId::kMaxSite)) -
            1) &
           ~kSessionBit;
}

/// Mask of the race windows a schedule session perturbs by default.
std::uint32_t schedule_sites();

/// Comma-separated site names of @p mask ("none" when empty).
std::string mask_names(std::uint32_t mask);

/// Parse a comma-separated name list ("none" = the empty mask) into
/// @p mask; false (and @p mask untouched) on an unknown name.
bool mask_from_names(const std::string& list, std::uint32_t& mask);

/**
 * Greedy delta debugging over a site mask: first try the empty mask
 * (a failure that needs no perturbation shrinks to it), then try
 * dropping each site in enum order and keep the drop whenever
 * @p fails still holds for the smaller mask. Pure apart from the
 * predicate, so a failing fault set and a failing schedule shrink the
 * same way.
 */
std::uint32_t shrink_mask(std::uint32_t mask,
                          const std::function<bool(std::uint32_t)>& fails);

/// What one arrival at a site did.
enum class Action : std::uint8_t {
    kNone = 0,  ///< passed through untouched
    kYield,     ///< gave up the timeslice (std::this_thread::yield)
    kDelay,     ///< slept a PCT priority-scaled duration
    kFail,      ///< the fault point failed (after any stall)
};

/// When a site fires and what a firing arrival does.
struct Policy
{
    /// Fire with this probability per arrival (used when
    /// every_nth == 0).
    double probability = 0.0;
    /// Fire on every Nth arrival (0 = use probability instead).
    std::uint64_t every_nth = 0;
    /// Fire on the first otherwise-eligible arrival only.
    bool one_shot = false;
    /// A fault's stall, slept before the fault point fails; under the
    /// schedule policy, the base of the priority-scaled delay.
    std::uint64_t delay_ns = 0;
    /// Schedule policy: a firing arrival yields or sleeps instead of
    /// failing.
    bool schedule = false;
};

/// Share of arrivals the schedule policy perturbs: dense on purpose,
/// so a short run still covers many orderings.
constexpr double kScheduleRate = 0.20;

/// The schedule policy with base delay @p base_delay_ns.
constexpr Policy
schedule_policy(std::uint64_t base_delay_ns)
{
    Policy p;
    p.probability = kScheduleRate;
    p.delay_ns = base_delay_ns;
    p.schedule = true;
    return p;
}

/// The pure decision for one arrival.
struct Decision
{
    Action action = Action::kNone;
    /// kFail: the stall; kDelay: 1..4 x the base delay, before
    /// priority scaling.
    std::uint64_t delay_ns = 0;
};

/// Point-in-time activity of one site.
struct SiteReport
{
    SiteId id = SiteId::kNone;
    Policy policy;
    bool armed = false;
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
    /// XOR-combined hash of every (index, decision) pair — a pure
    /// function of (seed, site, policy, evaluations), whatever the
    /// thread interleaving was.
    std::uint64_t fingerprint = 0;
};

/**
 * The injector. Normally used through the process-wide instance() and
 * the macros below, but freely constructible so unit tests can run
 * isolated instances.
 */
class Injector
{
  public:
    constexpr Injector() = default;

    Injector(const Injector&) = delete;
    Injector& operator=(const Injector&) = delete;

    /// Process-wide instance the macros evaluate against.
    static Injector& instance();

    /// Disarm every site, end any session, zero every counter and
    /// fingerprint, and set the decision seed.
    void reset(std::uint64_t seed);

    /// The active decision seed.
    std::uint64_t
    seed() const
    {
        return seed_.load(std::memory_order_relaxed);
    }

    /// Arm @p site with @p policy (the site's counters are zeroed).
    void arm(SiteId site, const Policy& policy);

    /// Disarm @p site (counters are kept for reporting).
    void disarm(SiteId site);

    /**
     * Begin a schedule session: every site in @p mask is armed with
     * schedule_policy(@p base_delay_ns), the PCT inversion points are
     * drawn, and model hooks and deliberate bugs go live.
     */
    void start(std::uint32_t mask = schedule_sites(),
               std::uint64_t base_delay_ns = 100'000);

    /// Disarm every site and end the session (counters are kept).
    void stop();

    /// Armed sites plus kSessionBit — the macros' relaxed gate.
    std::uint32_t
    armed_mask() const
    {
        return mask_.load(std::memory_order_relaxed);
    }

    /// True iff any site is armed.
    bool
    any_armed() const
    {
        return (armed_mask() & ~kSessionBit) != 0;
    }

    /// True while a schedule session runs.
    bool
    active() const
    {
        return (armed_mask() & kSessionBit) != 0;
    }

    /// True iff @p site is armed.
    bool
    armed(SiteId site) const
    {
        return (armed_mask() & site_bit(site)) != 0;
    }

    /**
     * One arrival at @p site: count it, decide, perform the decided
     * stall, sleep or yield in the calling thread, and return whether
     * the fault point fails.
     */
    bool arrive(SiteId site);

    /**
     * Bind the calling thread to a stable logical id for priority
     * assignment. Harness threads bind ids 0..N-1 at spawn so their
     * priorities reproduce; unbound threads (the GP thread, drainers)
     * share a fixed background id. Decisions are id-independent
     * either way — only delay scaling varies.
     */
    static void bind_thread(std::uint32_t logical_id);

    /// Drop the calling thread's binding (thread exit / reuse).
    static void unbind_thread();

    /// Activity of @p site.
    SiteReport report(SiteId site) const;

    /// Activity of every site that is armed or was ever evaluated.
    std::vector<SiteReport> report_all() const;

    // ---- offline replay (the determinism contract) ----

    /// Decision for arrival @p index at @p site under @p seed.
    static Decision decide(std::uint64_t seed, SiteId site,
                           const Policy& policy, std::uint64_t index);

    /// Fires after @p evaluations arrivals (pure replay).
    static std::uint64_t expected_fires(std::uint64_t seed, SiteId site,
                                        const Policy& policy,
                                        std::uint64_t evaluations);

    /// Fingerprint after @p evaluations arrivals (pure replay).
    static std::uint64_t expected_fingerprint(std::uint64_t seed,
                                              SiteId site,
                                              const Policy& policy,
                                              std::uint64_t evaluations);

    /// Priority (0..kMaxPriority) of @p logical_id in @p epoch.
    static unsigned priority(std::uint64_t seed, std::uint32_t logical_id,
                             std::uint64_t inversion_epoch);

    /// Delays scale by 1 << priority; priorities are 0..kMaxPriority.
    static constexpr unsigned kMaxPriority = 5;

    /// Number of seed-chosen priority-inversion points per session.
    static constexpr unsigned kInversionPoints = 3;

  private:
    static constexpr std::size_t kSiteCount =
        static_cast<std::size_t>(SiteId::kMaxSite);

    /// Per-site state. The policy is stored field by field in atomics
    /// so arm()/reset() on one thread never data-race with an arrival
    /// in flight on another: arm() publishes the policy before the
    /// release that sets the site's mask bit, and the relaxed loads
    /// compile to plain loads. An arrival that overlaps a disarm may
    /// mix old and new fields, which is fine — the site is being shut
    /// down.
    struct Site
    {
        std::atomic<double> probability{0.0};
        std::atomic<std::uint64_t> every_nth{0};
        std::atomic<bool> one_shot{false};
        std::atomic<std::uint64_t> delay_ns{0};
        std::atomic<bool> schedule{false};
        /// Index assigned to the site's next arrival.
        std::atomic<std::uint64_t> evaluations{0};
        std::atomic<std::uint64_t> fires{0};
        std::atomic<std::uint64_t> fingerprint{0};
        /// The firing arrival under one_shot, precomputed at arm time.
        std::atomic<std::uint64_t> one_shot_index{0};

        void store_policy(const Policy& policy);
        Policy load_policy() const;
    };

    void zero_counters(Site& s);

    std::atomic<std::uint64_t> seed_{0};
    std::atomic<std::uint32_t> mask_{0};
    /// Schedule-policy arrivals across all sites; drives inversions.
    std::atomic<std::uint64_t> total_evals_{0};
    /// Priority-inversion thresholds crossed so far this session.
    std::atomic<std::uint64_t> inversion_epoch_{0};
    /// The kInversionPoints thresholds, drawn at start().
    std::array<std::uint64_t, kInversionPoints> inversion_at_{};
    std::array<Site, kSiteCount> sites_;
};

namespace detail {
/// The process-wide injector. Constant-initialised and trivially
/// destructible, so it is usable from any static initialiser or
/// destructor and needs no guard.
extern constinit Injector g_injector;
}  // namespace detail

inline Injector&
Injector::instance()
{
    return detail::g_injector;
}

/// True while a process-wide schedule session runs (the model-hook
/// gate).
inline bool
session_active()
{
    return detail::g_injector.active();
}

// ---------------------------------------------------------------------
// Deliberate bugs, reintroducible behind a runtime flag so the
// schedule sweep can prove it finds them (`prudtorture --self-test`).
// Every detour sits inside PRUDENCE_MODEL_STMT, so an armed bug acts
// only during a session.
// ---------------------------------------------------------------------

enum class BugId : std::uint8_t {
    kNone = 0,
    /// Magazine deferral spills tag the batch with the epoch observed
    /// when the FIRST object was buffered instead of one conservative
    /// defer_epoch() read at spill time. Members buffered after a
    /// grace period advanced carry a too-small tag, authorizing reuse
    /// inside their grace period — the exact hazard DESIGN.md §9's
    /// conservative-tagging argument exists to prevent.
    kStaleSpillTag,
    /// The depot harvest path treats a deferred magazine block as
    /// reusable without checking that the grace period tagged on the
    /// block has completed (epoch <= completed). Objects whose grace
    /// period is still open are handed back to allocators — the exact
    /// hazard the ABA-via-epochs argument in DESIGN.md §14 prevents.
    kUnprotectedDepotPop,
};

/// Arm @p bug (kNone disarms). Test-only; see BugId.
void set_bug(BugId bug);

/// True iff @p bug is armed.
bool bug_enabled(BugId bug);

/// Stable CLI name of @p bug ("stale-spill-tag", ...).
const char* bug_name(BugId bug);

/// Parse a stable name back to its id (kNone when unknown).
BugId bug_from_name(const char* name);

}  // namespace prudence::perturb

// ---------------------------------------------------------------------
// Site macros — the only spelling instrumented code uses.
// ---------------------------------------------------------------------

/// Fault point: true when the site fails this arrival. An armed site
/// may stall, sleep or yield the caller first.
/// Usage: if (PRUDENCE_FAULT_POINT(kBuddyAlloc)) return nullptr;
#define PRUDENCE_FAULT_POINT(site)                                     \
    ((::prudence::perturb::Injector::instance().armed_mask() &         \
      ::prudence::perturb::site_bit(                                   \
          ::prudence::perturb::SiteId::site)) != 0 &&                  \
     ::prudence::perturb::Injector::instance().arrive(                 \
         ::prudence::perturb::SiteId::site))

/// Perturbation point: a site with no failure path (a race window or
/// a stall).
/// Usage: PRUDENCE_PERTURB_POINT(kMagSpillTag);
#define PRUDENCE_PERTURB_POINT(site)                                   \
    do {                                                               \
        (void)PRUDENCE_FAULT_POINT(site);                              \
    } while (0)

/// Statement executed only while a schedule session runs (model-
/// checker hooks, deliberate-bug detours).
#define PRUDENCE_MODEL_STMT(stmt)                                      \
    do {                                                               \
        if (::prudence::perturb::session_active()) {                   \
            stmt;                                                      \
        }                                                              \
    } while (0)

#endif  // PRUDENCE_PERTURB_PERTURB_H
