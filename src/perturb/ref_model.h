/**
 * @file
 * Sequential reference model of the epoch/defer state machine
 * (DESIGN.md §8).
 *
 * The allocator's reclamation safety argument is three claims:
 *
 *   I1 (conservative tagging)  — when a deferred object moves from a
 *       thread-private buffer into shared latent/ring state, the epoch
 *       tag it carries is >= the domain's defer_epoch() observed when
 *       the object was handed to the allocator. Tagging with a LATER
 *       epoch only delays reuse; tagging with an earlier one
 *       authorizes reuse inside the object's grace period.
 *   I2 (grace-period ordering) — an object is reused/reclaimed only
 *       once the domain's completed epoch has reached the object's
 *       tag, and no live reader section still holds a snapshot <= that
 *       tag.
 *   I3 (conservation)          — free + cached + used pages equal the
 *       arena capacity at every quiesce (checked by the prudtorture
 *       driver through BuddyAllocator::check_integrity + stats; not
 *       part of this per-object model).
 *
 * The ModelChecker tracks every deferred object through
 * defer -> spill -> reuse against I1/I2 while the real allocator runs
 * under a schedule session. Hooks live behind PRUDENCE_MODEL_STMT in the
 * production sources, so while no session is active each hook costs
 * one session_active() check.
 *
 * Hook placement is chosen so a correct allocator can never trip it:
 *  - on_defer records the epoch BEFORE the allocator reads its own
 *    tag, so the recorded epoch is <= any correctly-read tag.
 *  - on_reuse re-reads the authoritative completed epoch through a
 *    caller-provided function (not the allocator's cached copy), so a
 *    legitimately-fresh cache never looks stale to the model.
 *  - reader unregistration happens at unlock ENTRY, so a reader
 *    snapshot never outlives the critical section it covers.
 */
#ifndef PRUDENCE_PERTURB_REF_MODEL_H
#define PRUDENCE_PERTURB_REF_MODEL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace prudence::perturb {

/// One invariant violation caught by the model.
struct Violation
{
    /// Which invariant ("spill_tag_below_defer_epoch",
    /// "reuse_before_grace_period", "reuse_inside_reader_section").
    std::string kind;
    const void* object = nullptr;
    std::uint64_t defer_epoch = 0;  ///< epoch recorded at on_defer
    std::uint64_t tag = 0;          ///< tag observed at spill/reuse
    std::uint64_t completed = 0;    ///< completed epoch at the check
};

/**
 * The sequential reference model. One instance per seeded run;
 * installed process-wide so the PRUDENCE_MODEL_STMT hooks in the
 * allocator can reach it without plumbing.
 */
class ModelChecker
{
  public:
    ModelChecker() = default;

    ModelChecker(const ModelChecker&) = delete;
    ModelChecker& operator=(const ModelChecker&) = delete;

    /**
     * Install @p checker as the process-wide model the hooks feed
     * (nullptr uninstalls). The caller keeps ownership and must keep
     * the instance alive until uninstalled.
     */
    static void install(ModelChecker* checker);

    /// The installed model, or nullptr.
    static ModelChecker* installed();

    /**
     * Provide the authoritative completed-epoch reader used by
     * on_reuse. Must be wait-free-ish and callable from any thread
     * (typically [&] { return domain.completed_epoch(); }).
     */
    void
    set_completed_provider(std::function<std::uint64_t()> fn)
    {
        std::lock_guard<std::mutex> lk(mu_);
        completed_provider_ = std::move(fn);
    }

    /// Forget all tracked objects and violations (new run, same hooks).
    void clear();

    // ---- hooks (called via PRUDENCE_MODEL_STMT in production code) ----

    /// @p obj was handed to free_deferred; @p epoch_now is the
    /// domain's defer_epoch() at that moment.
    void on_defer(const void* obj, std::uint64_t epoch_now);

    /// @p obj moved into shared latent/ring state carrying @p tag.
    /// I1: tag must be >= the epoch recorded at on_defer.
    void on_spill(const void* obj, std::uint64_t tag);

    /// @p obj is about to be reused (popped back to a free pool after
    /// its grace period supposedly elapsed). I2: authoritative
    /// completed must be >= the tag, and no live reader may still hold
    /// a snapshot covering it.
    void on_reuse(const void* obj);

    /// A reader section began with @p snapshot (gp counter at lock).
    void on_reader_lock(std::uint64_t reader_slot,
                        std::uint64_t snapshot);

    /// The reader in @p reader_slot left its section.
    void on_reader_unlock(std::uint64_t reader_slot);

    // ---- results ----

    /// Violations recorded so far (order of detection).
    std::vector<Violation> violations() const;

    /// Fast gate for the driver's per-iteration poll.
    bool
    has_violations() const
    {
        return violation_count_.load(std::memory_order_acquire) != 0;
    }

    /// Objects currently tracked between defer and reuse.
    std::size_t tracked() const;

  private:
    struct Tracked
    {
        std::uint64_t defer_epoch = 0;  ///< recorded at on_defer
        std::uint64_t tag = 0;          ///< recorded at on_spill
        bool spilled = false;
    };

    void record(Violation v);

    mutable std::mutex mu_;
    std::unordered_map<const void*, Tracked> objects_;
    std::unordered_map<std::uint64_t, std::uint64_t> readers_;
    std::function<std::uint64_t()> completed_provider_;
    std::vector<Violation> violations_;
    std::atomic<std::size_t> violation_count_{0};

    static std::atomic<ModelChecker*> installed_;
};

// Free-function hook veneers: PRUDENCE_MODEL_STMT sites call these so
// the production sources need only this header's declarations, not
// the installed-instance plumbing.

void model_on_defer(const void* obj, std::uint64_t epoch_now);
void model_on_spill(const void* obj, std::uint64_t tag);
void model_on_reuse(const void* obj);
void model_on_reader_lock(std::uint64_t slot, std::uint64_t snapshot);
void model_on_reader_unlock(std::uint64_t slot);

}  // namespace prudence::perturb

#endif  // PRUDENCE_PERTURB_REF_MODEL_H
