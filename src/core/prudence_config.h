/**
 * @file
 * Tuning and feature switches for the Prudence allocator.
 *
 * Every boolean corresponds to one optimization the paper claims
 * (§4.1/§4.2); each can be disabled independently so the ablation
 * benchmark can measure its individual contribution.
 */
#ifndef PRUDENCE_CORE_PRUDENCE_CONFIG_H
#define PRUDENCE_CORE_PRUDENCE_CONFIG_H

#include <chrono>
#include <cstddef>

// Build-time default for the lock-free per-CPU layer toggle (CMake
// option PRUDENCE_LOCKFREE_PCPU). Both paths are always compiled —
// the option only flips the config default, so one binary can A/B.
#if !defined(PRUDENCE_LOCKFREE_PCPU_DEFAULT)
#define PRUDENCE_LOCKFREE_PCPU_DEFAULT 1
#endif

namespace prudence {

/// Construction parameters for PrudenceAllocator.
struct PrudenceConfig
{
    /// Simulated physical memory (hard OOM boundary).
    std::size_t arena_bytes = std::size_t{1} << 30;
    /// Virtual CPUs (per-CPU object + latent caches).
    unsigned cpus = 8;

    // ---- paper optimizations (ablation switches) ----

    /// Merge safe latent-cache objects into the object cache on the
    /// allocation slow path (Algorithm 1 lines 8-11).
    bool merge_on_alloc = true;

    /// Partial object-cache refill: refill_target minus the latent
    /// occupancy (Algorithm 1 line 14, §4.2 "Object cache refill").
    bool partial_refill = true;

    /// Flush more objects when the latent cache is fuller
    /// (§4.2 "Object cache flush").
    bool sized_flush = true;

    /// Background (idle-time) pre-flush of latent caches into latent
    /// slabs (§4.2 "Latent cache pre-flush").
    bool idle_preflush = true;

    /// Move slabs between node lists when deferrals foreshadow the
    /// move (§4.2 "Slab pre-movement", Algorithm 1 lines 52-59).
    bool slab_premove = true;

    /// On OOM, wait a grace period and retry before failing when
    /// deferred objects are outstanding (§4.2 "Handling memory
    /// pressure", Algorithm 1 lines 31-32).
    bool oom_deferral = true;

    /// Retain extra free slabs proportional to the outstanding
    /// deferred objects (the §1 "properly time the reclamation"
    /// claim): memory that deferred objects will vacate — and that
    /// allocations will immediately want back — is not returned to
    /// the page allocator mid-flight, eliminating the baseline's
    /// grow/shrink churn under sustained deferral.
    bool deferred_aware_shrink = true;

    // ---- tuning ----

    /**
     * Capacity of the thread-local magazines that front the per-CPU
     * caches (objects per thread per cache, and the deferral-buffer
     * depth). The fast paths of alloc/free/free_deferred then touch
     * no lock and no shared atomic, falling into the per-CPU layer
     * once per ~capacity/2 operations. 0 disables the layer entirely
     * (every operation goes straight to the per-CPU caches, as in
     * the pre-magazine allocator). Clamped per cache to the object
     * cache capacity and to kMaxMagazineCapacity.
     */
    std::size_t magazine_capacity = 32;

    /**
     * Lock-free per-CPU layer (DESIGN.md §14): magazine refill/flush
     * and deferral spills exchange whole magazine blocks with a
     * per-cache lock-free depot (one CAS) instead of splicing objects
     * under the per-CPU spinlock. false = legacy locked splice (the
     * A/B baseline leg). Requires magazines (magazine_capacity > 0)
     * to have any effect — the depot rides the magazine layer.
     */
    bool lockfree_pcpu = PRUDENCE_LOCKFREE_PCPU_DEFAULT != 0;

    /**
     * Free blocks kept per (CPU, order) in the buddy allocator's
     * per-CPU page caches (DESIGN.md §10) before a batch is returned
     * to the global free lists. Slab grow/shrink then takes the
     * global buddy lock once per ~pcp_batch slabs instead of once per
     * slab. 0 disables the layer (every page alloc/free serializes on
     * the global lock, as in the pre-PCP allocator).
     */
    std::size_t pcp_high_watermark = 32;

    /// Blocks moved per page-cache refill/drain batch (one global
    /// buddy-lock acquisition per batch). Clamped to
    /// [1, 64] and to pcp_high_watermark.
    std::size_t pcp_batch = 8;

    /// Maintenance (pre-flush) thread period; zero disables the
    /// thread entirely (tests drive maintenance_pass() directly).
    /// A few grace periods' cadence suffices — merges and pre-flushes
    /// only have new work once epochs complete.
    std::chrono::microseconds maintenance_interval{250};

    /**
     * Floor (percent of latent-ring capacity) for the governor's
     * set_deferred_admission() actuator (DESIGN.md §13). Shrinking
     * admission below this would defeat the latent cache entirely —
     * every deferral would spill to slab rings — so requests are
     * clamped here. 100 pins admission at nominal (actuator no-op).
     */
    unsigned latent_admission_floor_pct = 25;

    /// OOM-deferral retries before giving up.
    int oom_retries = 3;

    /// Backoff before the first OOM grace-period retry; doubles per
    /// retry. Bounds how hard a thrashing allocation path hammers
    /// synchronize()+reclaim when memory is genuinely exhausted.
    std::chrono::microseconds oom_backoff_initial{100};

    /// Upper bound on the per-retry OOM backoff.
    std::chrono::microseconds oom_backoff_max{10000};
};

}  // namespace prudence

#endif  // PRUDENCE_CORE_PRUDENCE_CONFIG_H
