#include "governor/governor.h"

#include <algorithm>
#include <cassert>

#include "perturb/perturb.h"
#include "trace/tracer.h"

namespace prudence::governor {

const char*
level_name(PressureLevel level)
{
    switch (level) {
    case PressureLevel::kNominal:
        return "nominal";
    case PressureLevel::kElevated:
        return "elevated";
    case PressureLevel::kCritical:
        return "critical";
    case PressureLevel::kOomLadder:
        return "oom_ladder";
    }
    return "unknown";
}

const char*
action_name(ActionId id)
{
    switch (id) {
    case ActionId::kNone:
        return "level";
    case ActionId::kExpediteGp:
        return "expedite_gp";
    case ActionId::kWidenCbBatch:
        return "widen_cb_batch";
    case ActionId::kShrinkLatent:
        return "shrink_latent";
    case ActionId::kTrimPcp:
        return "trim_pcp";
    case ActionId::kTrimDepot:
        return "trim_depot";
    case ActionId::kReclaim:
        return "reclaim";
    case ActionId::kMaxAction:
        break;
    }
    return "unknown";
}

namespace {

std::uint64_t
steady_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
to_ns(std::chrono::milliseconds ms)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(ms)
            .count());
}

}  // namespace

ReclamationGovernor::ReclamationGovernor(telemetry::Monitor& monitor,
                                         Actuators& actuators,
                                         GovernorConfig config)
    : monitor_(monitor), actuators_(actuators),
      config_(std::move(config))
{
    states_.reserve(config_.schemes.size());
    for (const Scheme& s : config_.schemes)
        states_.push_back(SchemeState{s, false, false, 0, false, 0, 0,
                                      0, 0});
}

ReclamationGovernor::~ReclamationGovernor()
{
    stop();
}

void
ReclamationGovernor::start()
{
    if (running_.exchange(true, std::memory_order_acq_rel))
        return;
    thread_ = std::thread([this] { run(); });
}

void
ReclamationGovernor::stop()
{
    if (running_.exchange(false, std::memory_order_acq_rel)) {
        {
            std::lock_guard<std::mutex> lock(wake_mutex_);
        }
        wake_cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }
    // Leave the system nominal: a stopped governor must not pin
    // expedited pacing or restricted admission forever.
    std::lock_guard<std::mutex> lock(mutex_);
    for (SchemeState& ss : states_) {
        ss.active = false;
        ss.pending = false;
    }
    if (applied_.expedite != 0 || applied_.batch != 0) {
        if (actuators_.pace_gp(0, 0)) {
            applied_.expedite = 0;
            applied_.batch = 0;
        }
    }
    if (applied_.admission != 100) {
        if (actuators_.shrink_latent(100))
            applied_.admission = 100;
    }
}

void
ReclamationGovernor::run()
{
    while (running_.load(std::memory_order_acquire)) {
        evaluate_once();
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait_for(lock, config_.period, [this] {
            return !running_.load(std::memory_order_acquire);
        });
    }
}

void
ReclamationGovernor::evaluate_once()
{
    evaluate_at(steady_now_ns());
}

void
ReclamationGovernor::evaluate_at(std::uint64_t t_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    evaluate_locked(t_ns);
}

void
ReclamationGovernor::note_oom_ladder(int rung)
{
    int prev = max_ladder_rung_.load(std::memory_order_relaxed);
    while (rung > prev &&
           !max_ladder_rung_.compare_exchange_weak(
               prev, rung, std::memory_order_relaxed)) {
    }
    ladder_noted_.store(true, std::memory_order_release);
}

void
ReclamationGovernor::set_schemes_enabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mutex_);
    schemes_enabled_ = enabled;
    if (!enabled) {
        for (SchemeState& ss : states_) {
            ss.active = false;
            ss.pending = false;
        }
    }
}

GovernorStats
ReclamationGovernor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    GovernorStats s;
    s.evaluations = evaluations_;
    s.fires = fires_;
    s.effects = effects_;
    s.refusals = refusals_;
    s.level_transitions = level_transitions_;
    s.level = level_.load(std::memory_order_relaxed);
    return s;
}

std::vector<SchemeSnapshot>
ReclamationGovernor::schemes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SchemeSnapshot> out;
    out.reserve(states_.size());
    for (const SchemeState& ss : states_)
        out.push_back(SchemeSnapshot{ss.scheme.name, ss.active,
                                     ss.fires, ss.effects,
                                     ss.refusals});
    return out;
}

bool
ReclamationGovernor::dispatch(ActionId action, std::uint64_t arg,
                              SchemeState* owner)
{
    // A failing site models a stuck actuation: the dispatch is
    // refused, the applied state stays put, and (for held actions)
    // the same dispatch is retried next round. The OOM ladder remains
    // the backstop throughout. Under the schedule policy the site
    // instead delays the actuation against allocator traffic and
    // quiesce.
    bool ok = false;
    if (!PRUDENCE_FAULT_POINT(kGovernorAction)) {
        switch (action) {
        case ActionId::kExpediteGp:
        case ActionId::kWidenCbBatch:
            // arg packs (expedite << 32 | batch); see evaluate_locked.
            ok = actuators_.pace_gp(
                static_cast<unsigned>(arg >> 32),
                static_cast<std::size_t>(arg & 0xFFFFFFFFu));
            break;
        case ActionId::kShrinkLatent:
            ok = actuators_.shrink_latent(
                static_cast<unsigned>(arg));
            break;
        case ActionId::kTrimPcp:
            ok = actuators_.trim_pcp(static_cast<std::size_t>(arg));
            break;
        case ActionId::kTrimDepot:
            ok = actuators_.trim_depot(static_cast<std::size_t>(arg));
            break;
        case ActionId::kReclaim:
            ok = actuators_.reclaim();
            break;
        case ActionId::kNone:
        case ActionId::kMaxAction:
            break;
        }
    }
    if (ok) {
        PRUDENCE_TRACE_EMIT(trace::EventId::kGovernorAction,
                            static_cast<std::uint64_t>(action), arg);
        effects_ += 1;
        if (owner != nullptr)
            owner->effects += 1;
        trace::MetricsRegistry::instance()
            .counter("governor.effects")
            .add();
    } else {
        refusals_ += 1;
        if (owner != nullptr)
            owner->refusals += 1;
        trace::MetricsRegistry::instance()
            .counter("governor.refusals")
            .add();
    }
    return ok;
}

void
ReclamationGovernor::evaluate_locked(std::uint64_t t_ns)
{
    evaluations_ += 1;

    // ---- 1. refresh scheme activity from the latest probe values ----
    std::vector<SchemeState*> newly_fired;
    if (schemes_enabled_ && !states_.empty()) {
        const auto latest = monitor_.latest();
        auto value_of = [&latest](const std::string& probe,
                                  std::uint64_t& out) {
            for (const auto& [name, value] : latest) {
                if (name == probe) {
                    out = value;
                    return true;
                }
            }
            return false;
        };

        for (SchemeState& ss : states_) {
            const Scheme& s = ss.scheme;
            std::uint64_t v = 0;
            if (!s.enabled || !value_of(s.probe, v)) {
                // Unknown probe (subsystem not registered yet or
                // already torn down): treat as not breaching.
                ss.active = false;
                ss.pending = false;
                continue;
            }
            const bool breach = s.cmp == Scheme::Cmp::kAbove
                                    ? v > s.threshold
                                    : v < s.threshold;
            const std::uint64_t rearm =
                s.rearm != 0 ? s.rearm : s.threshold;
            if (ss.active) {
                const bool rearmed = s.cmp == Scheme::Cmp::kAbove
                                         ? v <= rearm
                                         : v >= rearm;
                if (rearmed)
                    ss.active = false;  // excursion over; hysteresis
                continue;               // band keeps it active otherwise
            }
            if (!breach) {
                ss.pending = false;
                continue;
            }
            if (!ss.pending) {
                ss.pending = true;
                ss.pending_since_ns = t_ns;
            }
            const bool held =
                t_ns - ss.pending_since_ns >=
                to_ns(std::chrono::duration_cast<
                      std::chrono::milliseconds>(s.for_at_least));
            const bool cooled =
                !ss.has_fired ||
                t_ns - ss.last_fire_ns >= to_ns(s.cooldown);
            if (held && cooled) {
                ss.active = true;
                ss.pending = false;
                ss.has_fired = true;
                ss.last_fire_ns = t_ns;
                ss.fires += 1;
                fires_ += 1;
                trace::MetricsRegistry::instance()
                    .counter("governor.fires")
                    .add();
                newly_fired.push_back(&ss);
            }
        }
    }

    // ---- 2. consume a pending OOM-ladder note (terminal level) ----
    if (ladder_noted_.exchange(false, std::memory_order_acquire))
        ladder_until_ns_ =
            t_ns + to_ns(config_.ladder_hold);
    const bool ladder_held =
        ladder_until_ns_ != 0 && t_ns < ladder_until_ns_;
    if (!ladder_held)
        ladder_until_ns_ = 0;

    // ---- 3. resolve the desired held-actuator state ----
    // Per action, the highest-priority active scheme wins; scheme-list
    // order breaks ties. The terminal level overrides with maximal
    // actuation (the allocator clamps admission to its floor).
    struct Winner
    {
        SchemeState* ss = nullptr;
        int priority = 0;
    };
    Winner expedite_w, batch_w, admission_w;
    PressureLevel desired_level = PressureLevel::kNominal;
    auto offer = [](Winner& w, SchemeState& ss) {
        if (w.ss == nullptr || ss.scheme.priority > w.priority) {
            w.ss = &ss;
            w.priority = ss.scheme.priority;
        }
    };
    for (SchemeState& ss : states_) {
        if (!ss.active)
            continue;
        desired_level = std::max(desired_level, ss.scheme.level);
        switch (ss.scheme.action) {
        case ActionId::kExpediteGp:
            offer(expedite_w, ss);
            break;
        case ActionId::kWidenCbBatch:
            offer(batch_w, ss);
            break;
        case ActionId::kShrinkLatent:
            offer(admission_w, ss);
            break;
        default:
            break;
        }
    }

    unsigned expedite =
        expedite_w.ss != nullptr
            ? static_cast<unsigned>(expedite_w.ss->scheme.arg)
            : 0;
    std::size_t batch =
        batch_w.ss != nullptr
            ? static_cast<std::size_t>(batch_w.ss->scheme.arg)
            : 0;
    unsigned admission =
        admission_w.ss != nullptr
            ? static_cast<unsigned>(admission_w.ss->scheme.arg)
            : 100;
    if (ladder_held) {
        desired_level = PressureLevel::kOomLadder;
        expedite = GracePeriodDomain::kMaxExpediteLevel;
        admission = 0;  // allocator clamps to its configured floor
    }

    // ---- 4. dispatch state deltas through the guarded gate ----
    if (expedite != applied_.expedite || batch != applied_.batch) {
        // Pacing is one actuator: attribute to whichever scheme moved
        // it (expedite winner first), none when relaxing to nominal.
        SchemeState* owner = expedite_w.ss != nullptr ? expedite_w.ss
                                                      : batch_w.ss;
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(expedite) << 32) |
            static_cast<std::uint64_t>(batch & 0xFFFFFFFFu);
        if (dispatch(expedite != applied_.expedite
                         ? ActionId::kExpediteGp
                         : ActionId::kWidenCbBatch,
                     packed, owner)) {
            applied_.expedite = expedite;
            applied_.batch = batch;
        }
    }
    if (admission != applied_.admission) {
        if (dispatch(ActionId::kShrinkLatent, admission,
                     admission_w.ss))
            applied_.admission = admission;
    }
    for (SchemeState* ss : newly_fired) {
        // Edge actions fire once per excursion; a refusal is not
        // retried (the next excursion or the ladder covers it).
        if (ss->scheme.action == ActionId::kTrimPcp)
            dispatch(ActionId::kTrimPcp, ss->scheme.arg, ss);
        else if (ss->scheme.action == ActionId::kTrimDepot)
            dispatch(ActionId::kTrimDepot, ss->scheme.arg, ss);
        else if (ss->scheme.action == ActionId::kReclaim)
            dispatch(ActionId::kReclaim, ss->scheme.arg, ss);
    }
    if (ladder_held) {
        // Terminal level: harvest already-safe deferrals every round
        // the hold lasts — the governor-side mirror of ladder rung 1.
        dispatch(ActionId::kReclaim, 0, nullptr);
    }

    // ---- 5. publish the pressure level ----
    const PressureLevel prev =
        level_.load(std::memory_order_relaxed);
    if (desired_level != prev) {
        level_.store(desired_level, std::memory_order_relaxed);
        level_transitions_ += 1;
        PRUDENCE_TRACE_EMIT(
            trace::EventId::kGovernorAction, 0,
            static_cast<std::uint64_t>(desired_level));
        trace::MetricsRegistry::instance()
            .counter("governor.level_transitions")
            .add();
    }
}

std::vector<Scheme>
default_schemes(const DefaultSchemeTuning& tuning)
{
    std::vector<Scheme> schemes;

    Scheme expedite;
    expedite.name = "expedite_on_latent_bytes";
    expedite.probe = tuning.prefix + "alloc.latent_bytes";
    expedite.cmp = Scheme::Cmp::kAbove;
    expedite.threshold = tuning.latent_bytes_high;
    expedite.rearm = tuning.latent_bytes_high / 2;
    expedite.for_at_least = tuning.hold;
    expedite.cooldown = tuning.cooldown;
    expedite.priority = 10;
    expedite.level = PressureLevel::kElevated;
    expedite.action = ActionId::kExpediteGp;
    expedite.arg = 2;
    schemes.push_back(expedite);

    Scheme widen;
    widen.name = "widen_cb_on_deferred_age";
    widen.probe = tuning.prefix + "age.deferred_p99_ns";
    widen.cmp = Scheme::Cmp::kAbove;
    widen.threshold = tuning.deferred_age_p99_ns;
    widen.rearm = tuning.deferred_age_p99_ns / 2;
    widen.for_at_least = tuning.hold;
    widen.cooldown = tuning.cooldown;
    widen.priority = 10;
    widen.level = PressureLevel::kElevated;
    widen.action = ActionId::kWidenCbBatch;
    widen.arg = 256;
    schemes.push_back(widen);

    Scheme shrink;
    shrink.name = "shrink_on_low_headroom";
    shrink.probe = tuning.prefix + "buddy.low_order_headroom_pages";
    shrink.cmp = Scheme::Cmp::kBelow;
    shrink.threshold = tuning.headroom_low_pages;
    shrink.rearm = tuning.headroom_low_pages * 2;
    shrink.for_at_least = tuning.hold;
    shrink.cooldown = tuning.cooldown;
    shrink.priority = 20;
    shrink.level = PressureLevel::kCritical;
    shrink.action = ActionId::kShrinkLatent;
    shrink.arg = 50;
    schemes.push_back(shrink);

    Scheme trim;
    trim.name = "trim_on_low_headroom";
    trim.probe = tuning.prefix + "buddy.low_order_headroom_pages";
    trim.cmp = Scheme::Cmp::kBelow;
    trim.threshold = tuning.headroom_low_pages;
    trim.rearm = tuning.headroom_low_pages * 2;
    trim.for_at_least = tuning.hold;
    trim.cooldown = tuning.cooldown;
    trim.priority = 20;
    trim.level = PressureLevel::kCritical;
    trim.action = ActionId::kTrimPcp;
    trim.arg = 1;
    schemes.push_back(trim);

    // Depot overgrowth: cached full-block capacity beyond the bound
    // is memory the slabs could return to the buddy — trim it back to
    // a small keep when the depot gauge says it piled up (DESIGN.md
    // §14; the slab-layer companion of trim_on_low_headroom).
    Scheme depot;
    depot.name = "trim_depot_on_overgrowth";
    depot.probe = tuning.prefix + "alloc.depot_full_objects";
    depot.cmp = Scheme::Cmp::kAbove;
    depot.threshold = tuning.depot_full_objects_high;
    depot.rearm = tuning.depot_full_objects_high / 2;
    depot.for_at_least = tuning.hold;
    depot.cooldown = tuning.cooldown;
    depot.priority = 15;
    depot.level = PressureLevel::kElevated;
    depot.action = ActionId::kTrimDepot;
    depot.arg = 4;
    schemes.push_back(depot);

    return schemes;
}

}  // namespace prudence::governor
