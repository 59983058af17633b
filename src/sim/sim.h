/**
 * @file
 * Deterministic schedule fuzzing for the RCU–allocator co-design
 * (DESIGN.md §11).
 *
 * TSan and the wall-clock torture harness only ever sample whatever
 * interleavings the OS happens to produce. This subsystem instruments
 * the named cross-thread race windows — magazine spill tagging, PCP
 * stash transitions, grace-period phase boundaries, callback-batch
 * hand-off, latent-ring moves, contended lock acquisition — with
 * yield points a seed-driven scheduler can perturb, in the spirit of
 * PCT (probabilistic concurrency testing) and rr's chaos mode.
 *
 * Design (mirrors src/fault/fault_injector.h):
 *  - Named yield points (YieldId) compiled into the subsystems via
 *    the PRUDENCE_SIM_* macros below.
 *  - Seed determinism: whether the k-th arrival at a yield point is
 *    perturbed, and by how long, is a pure function
 *    decide(seed, site, k) — independent of which thread arrives and
 *    of wall-clock time. Each site keeps an order-independent XOR
 *    fingerprint of its decision sequence so two runs that evaluate a
 *    site the same number of times under the same seed provably made
 *    identical decisions; static expected_*() helpers recompute both
 *    offline.
 *  - PCT-style priorities: each harness-bound thread carries a
 *    priority derived from (seed, logical id, inversion epoch). A
 *    fired perturbation's delay is scaled by the arriving thread's
 *    priority, and a small number of seed-chosen priority-inversion
 *    points (global evaluation counts) re-draw every priority
 *    mid-run, so a low-priority thread can suddenly outrun the rest —
 *    the PCT recipe for reaching depth-d ordering bugs.
 *  - A site mask restricts which yield points are active; the
 *    schedfuzz driver shrinks a failing seed to a minimal site subset
 *    by delta-debugging this mask.
 *
 * Cost model:
 *  - No session active: one relaxed load per yield point (the
 *    process-wide Scheduler is a constant-initialised namespace-scope
 *    object and session_active() is inline).
 *  - Session active: a fetch_add, one splitmix64 hash, a fingerprint
 *    XOR, and (when the decision fires) a short sleep or yield.
 */
#ifndef PRUDENCE_SIM_SIM_H
#define PRUDENCE_SIM_SIM_H

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace prudence::sim {

/// Every yield point wired into the tree. Names are stable (they
/// appear in schedfuzz reports, replay command lines and tests).
enum class YieldId : std::uint16_t {
    kNone = 0,

    // sync/ — generic lock-acquisition ordering.
    kSpinLockAcquire,  ///< SpinLock::lock: before the acquire attempt

    // slab/ + core/ — magazine and latent-ring windows.
    kMagDeferBuffer,  ///< between buffering a deferral and the next op
    kMagSpillTag,     ///< between the batch defer_epoch() read and the
                      ///< latent pushes it tags
    kMagFlush,        ///< magazine -> per-CPU flush hand-off
    kMagRefill,       ///< per-CPU -> magazine refill hand-off
    kLatentPush,      ///< after the epoch read, before the latent push
    kLatentSpill,     ///< between taking a latent spill batch and the
                      ///< node-lock pushes
    kLatentMerge,     ///< after reading completed_epoch, before merging

    // page/ — PCP stash transitions racing the buddy merge loop.
    kPcpRefill,  ///< between the global pops and the stash publish
    kPcpDrain,   ///< between unhooking a stash batch and the global push

    // rcu/ — grace-period and callback pathologies.
    kGpPhase,    ///< between GP phase-1 and phase-2 reader waits
    kGpPublish,  ///< after the reader waits, before completed_epoch is
                 ///< published
    kCbHandOff,  ///< between collecting a callback batch and invoking it

    // governor/ — actuation hand-off.
    kGovernorActuate,  ///< between deciding an actuation and applying
                       ///< it (races allocator traffic + quiesce)

    // sync/ + slab/ — lock-free per-CPU layer CAS windows
    // (DESIGN.md §14).
    kLfStackPush,    ///< between reading the stack head and the push CAS
    kLfStackPop,     ///< between reading head->next and the pop CAS
    kLfRing,         ///< between claiming a ring cell and publishing it
    kDepotExchange,  ///< between filling/draining a depot block and the
                     ///< CAS that exchanges custody
    kDepotHarvest,   ///< between reading a deferred block's epoch and
                     ///< claiming its objects for reuse

    kMaxYield
};

/// Stable report/CLI name of @p id ("mag_spill_tag", "gp_publish", ...).
const char* yield_name(YieldId id);

/// Parse a stable name back to its id (kNone when unknown).
YieldId yield_from_name(const char* name);

/// Bit for @p id in a site mask.
constexpr std::uint32_t
yield_bit(YieldId id)
{
    return std::uint32_t{1} << static_cast<unsigned>(id);
}

/// Mask with every yield point enabled.
constexpr std::uint32_t
all_yields()
{
    return (std::uint32_t{1}
            << static_cast<unsigned>(YieldId::kMaxYield)) -
           2;  // all bits except kNone's bit 0
}

/// What the scheduler did with one arrival at a yield point.
enum class Action : std::uint8_t {
    kNone = 0,   ///< passed through untouched
    kYield,      ///< gave up the timeslice (std::this_thread::yield)
    kDelay,      ///< slept a priority-scaled deterministic duration
};

/// The pure decision for evaluation @p index of a site: what to do
/// and the unscaled delay payload.
struct Decision
{
    Action action = Action::kNone;
    /// Base delay before priority scaling (kDelay only).
    std::uint64_t delay_ns = 0;
};

/// Point-in-time activity of one yield point.
struct YieldReport
{
    YieldId id = YieldId::kNone;
    std::uint64_t evaluations = 0;
    std::uint64_t perturbations = 0;  ///< yields + delays
    /// XOR-combined hash of every (index, action) pair — a pure
    /// function of (seed, site, evaluations), whatever the
    /// interleaving was.
    std::uint64_t fingerprint = 0;
};

/**
 * The schedule controller. Normally used through the process-wide
 * instance() and the macros below, but freely constructible so unit
 * tests can run isolated instances.
 */
class Scheduler
{
  public:
    constexpr Scheduler() = default;

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Process-wide instance the macros evaluate against.
    static Scheduler& instance();

    /**
     * End any active session, zero every counter and fingerprint, and
     * set the decision seed. Call before start().
     */
    void reset(std::uint64_t seed);

    /// The active decision seed.
    std::uint64_t
    seed() const
    {
        return seed_.load(std::memory_order_relaxed);
    }

    /**
     * Begin a session: yield points in @p site_mask become active.
     * @p base_delay_ns is the unscaled payload of a kDelay decision
     * (priority scaling multiplies it by up to 1 << kMaxPriority).
     */
    void start(std::uint32_t site_mask = all_yields(),
               std::uint64_t base_delay_ns = 100'000);

    /// End the session (counters are kept for reporting).
    void stop();

    /// True while a session is active (the macros' relaxed fast gate).
    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /// The active site mask.
    std::uint32_t
    site_mask() const
    {
        return site_mask_.load(std::memory_order_relaxed);
    }

    /**
     * Bind the calling thread to a stable logical id for priority
     * assignment. Harness threads bind ids 0..N-1 at spawn so their
     * priorities are reproducible across runs; unbound threads (the
     * GP thread, drainers) share a fixed background id. Decisions are
     * id-independent either way — only delay scaling varies.
     */
    static void bind_thread(std::uint32_t logical_id);

    /// Drop the calling thread's binding (thread exit / reuse).
    static void unbind_thread();

    /**
     * Evaluate one arrival at @p site: count it, decide, and perform
     * the decided perturbation (sleep/yield) in the calling thread.
     */
    void yield_point(YieldId site);

    /// Activity of @p site.
    YieldReport report(YieldId site) const;

    /// Activity of every site that was ever evaluated.
    std::vector<YieldReport> report_all() const;

    // ---- offline replay (the determinism contract) ----

    /// Decision for evaluation @p index of @p site under @p seed.
    static Decision decide(std::uint64_t seed, YieldId site,
                           std::uint64_t index);

    /// Fingerprint after @p evaluations evaluations (pure replay).
    static std::uint64_t expected_fingerprint(std::uint64_t seed,
                                              YieldId site,
                                              std::uint64_t evaluations);

    /// Perturbations after @p evaluations evaluations (pure replay).
    static std::uint64_t expected_perturbations(
        std::uint64_t seed, YieldId site, std::uint64_t evaluations);

    /// Priority (0..kMaxPriority) of @p logical_id in @p epoch.
    static unsigned priority(std::uint64_t seed, std::uint32_t logical_id,
                             std::uint64_t inversion_epoch);

    /// Delays scale by 1 << priority; priorities are 0..kMaxPriority.
    static constexpr unsigned kMaxPriority = 5;

    /// Number of seed-chosen priority-inversion points per session.
    static constexpr unsigned kInversionPoints = 3;

  private:
    static constexpr std::size_t kSiteCount =
        static_cast<std::size_t>(YieldId::kMaxYield);

    struct Site
    {
        std::atomic<std::uint64_t> evaluations{0};
        std::atomic<std::uint64_t> perturbations{0};
        std::atomic<std::uint64_t> fingerprint{0};
    };

    std::atomic<std::uint64_t> seed_{0};
    std::atomic<bool> active_{false};
    std::atomic<std::uint32_t> site_mask_{0};
    std::atomic<std::uint64_t> base_delay_ns_{0};
    /// Total evaluations across all sites; drives inversion epochs.
    std::atomic<std::uint64_t> total_evals_{0};
    /// Priority-inversion thresholds crossed so far this session.
    std::atomic<std::uint64_t> inversion_epoch_{0};
    /// The kInversionPoints thresholds, precomputed at start().
    std::array<std::uint64_t, kInversionPoints> inversion_at_{};
    std::array<Site, kSiteCount> sites_;
};

namespace detail {
/// The process-wide scheduler. Constant-initialised and trivially
/// destructible, so it is usable from any static initialiser or
/// destructor and needs no guard.
extern constinit Scheduler g_scheduler;
}  // namespace detail

inline Scheduler&
Scheduler::instance()
{
    return detail::g_scheduler;
}

/// True while a sim session is running (relaxed; the hot-path gate
/// shared by the yield-point and model-hook macros).
inline bool
session_active()
{
    return detail::g_scheduler.active();
}

// ---------------------------------------------------------------------
// Deliberate bugs, reintroducible behind a runtime flag so schedfuzz
// can prove it finds them (`schedfuzz --self-test`). Every detour sits
// inside PRUDENCE_SIM_STMT, so an armed bug acts only during a session.
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

}  // namespace prudence::sim

// ---------------------------------------------------------------------
// Yield-point macros — the only spelling instrumented code uses.
// ---------------------------------------------------------------------

/// Named interleaving perturbation point.
/// Usage: PRUDENCE_SIM_YIELD(kMagSpillTag);
#define PRUDENCE_SIM_YIELD(site)                                       \
    do {                                                               \
        if (::prudence::sim::session_active())                         \
            ::prudence::sim::Scheduler::instance().yield_point(        \
                ::prudence::sim::YieldId::site);                       \
    } while (0)

/// Statement executed only while a sim session is active (model-
/// checker hooks, deliberate-bug detours).
#define PRUDENCE_SIM_STMT(stmt)                                        \
    do {                                                               \
        if (::prudence::sim::session_active()) {                       \
            stmt;                                                      \
        }                                                              \
    } while (0)

#endif  // PRUDENCE_SIM_SIM_H
