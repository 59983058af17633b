/**
 * @file
 * The adaptive reclamation governor (DESIGN.md §13).
 *
 * Prudence's knobs — grace-period pacing, latent-ring admission,
 * callback batch width, PCP trim — are static configuration. The
 * governor closes the loop: it reads the telemetry Monitor's probes
 * (latent bytes, deferred-object age, buddy low-order headroom,
 * callback backlog, reader-section duration), evaluates an ordered
 * list of declarative *schemes* ("latent_bytes above X for Y ms ⇒
 * expedite grace periods", "headroom below Z ⇒ shrink latent rings
 * and trim page caches"), and drives *actuators* — the
 * GracePeriodDomain pacing interface, Allocator::set_deferred_
 * admission(), BuddyAllocator::trim_pcp(), Allocator::reclaim_
 * ready() — mapping pressure onto reclamation effort.
 *
 * Escalation is one story: nominal → elevated → critical →
 * kOomLadder. The first three levels are the maximum level of the
 * active schemes; the terminal level is entered when the allocator's
 * OOM ladder reports a rung through note_oom_ladder() (the PR 2
 * ladder is the governor's backstop, not a parallel mechanism) and
 * held for GovernorConfig::ladder_hold so post-OOM actuation stays
 * maximal while the burst drains.
 *
 * Robustness properties:
 *  - Hysteresis: a scheme that fired stays active until its probe
 *    crosses back past `rearm` (≤ threshold for kAbove rules), so
 *    actions never flap across a noisy boundary.
 *  - for_at_least: a breach must persist before the scheme fires.
 *  - Cooldown: a scheme that deactivated cannot re-fire before
 *    `cooldown` elapses.
 *  - Idempotence: held actuations (pacing, admission) dispatch only
 *    when the desired state differs from the applied state; a
 *    refused dispatch (actuator returned false, or the
 *    kGovernorAction fault site fired) leaves the applied state
 *    unchanged, so the governor retries next round — a "stuck
 *    actuation" is visible as a refusal count, never as drift.
 *  - Determinism: evaluate_at(t_ns) runs one evaluation under an
 *    injected clock; tests and prudtorture never need the
 *    background thread.
 */
#ifndef PRUDENCE_GOVERNOR_GOVERNOR_H
#define PRUDENCE_GOVERNOR_GOVERNOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/allocator.h"
#include "page/buddy_allocator.h"
#include "rcu/grace_period.h"
#include "telemetry/monitor.h"

namespace prudence::governor {

/// The escalation ladder. Levels are ordered: the governor's level is
/// the maximum demanded by any active scheme, overridden by
/// kOomLadder while an allocator OOM-ladder excursion is held.
enum class PressureLevel : std::uint8_t {
    kNominal = 0,  ///< no scheme active; all actuators relaxed
    kElevated,     ///< early pressure: pacing/batch schemes active
    kCritical,     ///< headroom pressure: admission/trim schemes active
    kOomLadder,    ///< the allocator's OOM ladder fired (terminal)
};

/// Stable display name of @p level ("nominal", "elevated", ...).
const char* level_name(PressureLevel level);

/// What a scheme does while active (held) or when it fires (edge).
enum class ActionId : std::uint8_t {
    kNone = 0,      ///< (trace only: a pressure-level transition)
    kExpediteGp,    ///< held: pace grace periods (arg = expedite level)
    kWidenCbBatch,  ///< held: raise the callback batch floor (arg)
    kShrinkLatent,  ///< held: restrict deferral admission (arg = pct)
    kTrimPcp,       ///< edge: trim per-CPU page caches (arg = keep/order)
    kTrimDepot,     ///< edge: trim magazine depot (arg = keep blocks)
    kReclaim,       ///< edge: harvest every already-safe deferral
    kMaxAction
};

/// Stable display name of @p id ("expedite_gp", "trim_pcp", ...).
const char* action_name(ActionId id);

/// One declarative pressure rule. Evaluated every governor round
/// against the named probe's latest sampled value.
struct Scheme
{
    enum class Cmp { kAbove, kBelow };

    std::string name;         ///< stable id (reports, tests, traces)
    std::string probe;        ///< monitor probe watched
    Cmp cmp = Cmp::kAbove;    ///< breach direction
    std::uint64_t threshold = 0;  ///< breach boundary (exclusive)
    /// Hysteresis boundary: once active, the scheme deactivates only
    /// when the value crosses back past this (kAbove: value <= rearm;
    /// kBelow: value >= rearm). 0 = use `threshold` (no dead band).
    std::uint64_t rearm = 0;
    /// Breach must persist this long before the scheme fires.
    std::chrono::milliseconds for_at_least{0};
    /// Minimum time between deactivation and the next fire.
    std::chrono::milliseconds cooldown{0};
    /// Conflict resolution: among active schemes demanding the same
    /// actuator, the highest priority wins (list order breaks ties).
    int priority = 0;
    /// Pressure level this scheme demands while active.
    PressureLevel level = PressureLevel::kElevated;
    ActionId action = ActionId::kNone;
    std::uint64_t arg = 0;  ///< action argument (see ActionId)
    bool enabled = true;
};

/// Point-in-time view of one scheme's counters.
struct SchemeSnapshot
{
    std::string name;
    bool active = false;
    std::uint64_t fires = 0;     ///< activations (one per excursion)
    std::uint64_t effects = 0;   ///< dispatches that took effect
    std::uint64_t refusals = 0;  ///< dispatches refused (fault/actuator)
};

/// Governor-wide counters.
struct GovernorStats
{
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
    std::uint64_t effects = 0;
    std::uint64_t refusals = 0;
    std::uint64_t level_transitions = 0;
    PressureLevel level = PressureLevel::kNominal;
};

/**
 * The actuation surface the governor drives. Implementations must be
 * idempotent (applying the same state twice is harmless) and return
 * false to refuse an actuation (the governor counts the refusal and,
 * for held actions, retries next round). Tests substitute a
 * recording implementation.
 */
class Actuators
{
  public:
    virtual ~Actuators() = default;

    /// Held: grace-period pacing — expedite level for the domain's
    /// detector plus a callback batch-width floor (0/0 = nominal).
    virtual bool pace_gp(unsigned expedite_level,
                         std::size_t batch_limit) = 0;

    /// Held: restrict deferral admission to @p pct percent of nominal
    /// (100 = nominal; the allocator clamps the floor).
    virtual bool shrink_latent(unsigned admission_pct) = 0;

    /// Edge: trim the per-CPU page caches down to @p keep_per_order.
    virtual bool trim_pcp(std::size_t keep_per_order) = 0;

    /// Edge: trim the lock-free magazine depot down to @p keep_blocks
    /// cached full blocks per cache (DESIGN.md §14) — the slab-layer
    /// companion of trim_pcp.
    virtual bool trim_depot(std::size_t keep_blocks) = 0;

    /// Edge: harvest every deferral whose grace period completed.
    virtual bool reclaim() = 0;
};

/**
 * Production actuators: any (GracePeriodDomain, Allocator) pair.
 * pace_gp feeds GracePeriodDomain::set_pacing() (RCU detector
 * threads shrink their pause; ManualRcuDomain advances; the callback
 * engine widens its per-tick batch); shrink_latent and reclaim go
 * through the Allocator virtuals; trim_pcp through the backing
 * BuddyAllocator.
 */
class AllocatorActuators : public Actuators
{
  public:
    AllocatorActuators(GracePeriodDomain& domain, Allocator& allocator)
        : domain_(domain), allocator_(allocator)
    {
    }

    bool
    pace_gp(unsigned expedite_level, std::size_t batch_limit) override
    {
        domain_.set_pacing(expedite_level, batch_limit);
        return true;
    }

    bool
    shrink_latent(unsigned admission_pct) override
    {
        allocator_.set_deferred_admission(admission_pct);
        return true;
    }

    bool
    trim_pcp(std::size_t keep_per_order) override
    {
        allocator_.page_allocator().trim_pcp(keep_per_order);
        return true;
    }

    bool
    trim_depot(std::size_t keep_blocks) override
    {
        allocator_.trim_depot(keep_blocks);
        return true;
    }

    bool
    reclaim() override
    {
        allocator_.reclaim_ready();
        return true;
    }

  private:
    GracePeriodDomain& domain_;
    Allocator& allocator_;
};

/// Construction parameters for ReclamationGovernor.
struct GovernorConfig
{
    /// Background evaluation cadence (start()/stop() mode).
    std::chrono::microseconds period{10'000};
    /// How long the terminal kOomLadder level is held after the last
    /// note_oom_ladder(), measured on the evaluation clock.
    std::chrono::milliseconds ladder_hold{100};
    /// The ordered scheme list (see default_schemes()).
    std::vector<Scheme> schemes;
};

/// The feedback controller. One instance per (monitor, actuators)
/// pair; evaluation is externally paced (evaluate_at / evaluate_once)
/// or background-threaded (start / stop).
class ReclamationGovernor
{
  public:
    ReclamationGovernor(telemetry::Monitor& monitor,
                        Actuators& actuators, GovernorConfig config);
    ~ReclamationGovernor();

    ReclamationGovernor(const ReclamationGovernor&) = delete;
    ReclamationGovernor& operator=(const ReclamationGovernor&) = delete;

    /// Begin periodic background evaluation (idempotent). The monitor
    /// must be sampling (start() or externally paced) for probes to
    /// be fresh.
    void start();

    /// Stop background evaluation and join (idempotent). Actuators
    /// are relaxed to nominal on the way out.
    void stop();

    /// One evaluation round on the steady clock.
    void evaluate_once();

    /**
     * One evaluation round with an injected timestamp (virtual-clock
     * tests, prudtorture determinism). Timestamps must be
     * non-decreasing across calls. Reads Monitor::latest(); callers
     * pace Monitor::sample_at() themselves.
     */
    void evaluate_at(std::uint64_t t_ns);

    /**
     * The allocator's OOM ladder fired rung @p rung (1..3). Async and
     * lock-free — called from the allocation slow path via
     * set_pressure_listener(). Consumed by the next evaluation: the
     * governor enters (and holds) the terminal kOomLadder level with
     * maximal actuation.
     */
    void note_oom_ladder(int rung);

    /**
     * Disable (or re-enable) every scheme at once. Disabling
     * deactivates all schemes and relaxes held actuations to nominal
     * on the next evaluation; ladder notes are still honored. The
     * governor-vs-ladder handoff test runs with schemes disabled.
     */
    void set_schemes_enabled(bool enabled);

    /// Current pressure level (relaxed; readable from any thread).
    PressureLevel
    level() const
    {
        return level_.load(std::memory_order_relaxed);
    }

    /// Highest OOM-ladder rung ever noted (0 = none).
    int
    max_ladder_rung() const
    {
        return max_ladder_rung_.load(std::memory_order_relaxed);
    }

    /// Governor-wide counters.
    GovernorStats stats() const;

    /// Per-scheme counters, scheme-list order.
    std::vector<SchemeSnapshot> schemes() const;

  private:
    /// Per-scheme runtime state (guarded by mutex_).
    struct SchemeState
    {
        Scheme scheme;
        bool active = false;
        bool pending = false;  ///< breaching, for_at_least not yet met
        std::uint64_t pending_since_ns = 0;
        bool has_fired = false;
        std::uint64_t last_fire_ns = 0;
        std::uint64_t fires = 0;
        std::uint64_t effects = 0;
        std::uint64_t refusals = 0;
    };

    /// Last successfully applied held-actuator state.
    struct Applied
    {
        unsigned expedite = 0;
        std::size_t batch = 0;
        unsigned admission = 100;
    };

    void evaluate_locked(std::uint64_t t_ns);
    /// One guarded actuator dispatch: fault gate, sim yield, trace,
    /// counters. @p owner receives effect/refusal attribution (may be
    /// null for relax-to-nominal and ladder-driven dispatches).
    bool dispatch(ActionId action, std::uint64_t arg,
                  SchemeState* owner);
    void run();

    telemetry::Monitor& monitor_;
    Actuators& actuators_;
    GovernorConfig config_;

    mutable std::mutex mutex_;
    std::vector<SchemeState> states_;
    bool schemes_enabled_ = true;
    Applied applied_;
    std::uint64_t evaluations_ = 0;
    std::uint64_t fires_ = 0;
    std::uint64_t effects_ = 0;
    std::uint64_t refusals_ = 0;
    std::uint64_t level_transitions_ = 0;
    /// End of the current kOomLadder hold on the evaluation clock
    /// (0 = no hold).
    std::uint64_t ladder_until_ns_ = 0;

    std::atomic<PressureLevel> level_{PressureLevel::kNominal};
    /// Ladder note pending consumption by the next evaluation.
    std::atomic<bool> ladder_noted_{false};
    std::atomic<int> max_ladder_rung_{0};

    std::atomic<bool> running_{false};
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    std::thread thread_;
};

/// Tuning for the stock scheme list.
struct DefaultSchemeTuning
{
    /// Probe-name prefix the allocator's probes were registered with.
    std::string prefix;
    /// kExpediteGp when alloc.latent_bytes exceeds this.
    std::uint64_t latent_bytes_high = 8u << 20;
    /// kShrinkLatent + kTrimPcp when buddy.low_order_headroom_pages
    /// drops below this.
    std::uint64_t headroom_low_pages = 64;
    /// kWidenCbBatch when age.deferred_p99_ns exceeds this.
    std::uint64_t deferred_age_p99_ns = 50'000'000;
    /// kTrimDepot when alloc.depot_full_objects exceeds this.
    std::uint64_t depot_full_objects_high = 4096;
    std::chrono::milliseconds hold{10};
    std::chrono::milliseconds cooldown{50};
};

/**
 * The stock scheme list — the ISSUE's three rules plus the headroom
 * trim companion and the depot trim:
 *  1. latent_bytes above high for hold  ⇒ expedite GPs   (elevated)
 *  2. deferred-age p99 above bound      ⇒ widen batches  (elevated)
 *  3. low-order headroom below low      ⇒ shrink latent  (critical)
 *  4. low-order headroom below low      ⇒ trim PCP       (critical)
 *  5. depot full objects above high     ⇒ trim depot     (elevated)
 */
std::vector<Scheme> default_schemes(const DefaultSchemeTuning& tuning);

}  // namespace prudence::governor

#endif  // PRUDENCE_GOVERNOR_GOVERNOR_H
