/**
 * @file
 * Lock-free depot of whole magazines (DESIGN.md §14).
 *
 * The depot is the shared middle layer between thread-local magazines
 * and a cache's per-CPU/slab structures. Instead of splicing objects
 * one-by-one under a per-CPU spinlock, a thread exchanges a whole
 * fixed-size block with one CAS:
 *
 *   - magazine_flush   → fill a block, push_full()
 *   - magazine refill  → pop_full(), tip into the magazine
 *   - deferral spill   → fill a block, stamp ONE conservative
 *                        defer_epoch() read, push_deferred()
 *   - harvest          → pop_ripe(completed): the oldest block whose
 *                        stamped grace period completed becomes a
 *                        full block (or feeds slab freelists)
 *
 * Full and empty blocks live on one LockFreeBlockStack each. Deferred
 * blocks live on a ring of kDeferredBuckets stacks indexed by
 * `epoch % kDeferredBuckets`, so one bucket holds one epoch's blocks
 * and "the oldest ripe block" is a walk over a handful of buckets in
 * epoch order, never a scan of unripe blocks. Each bucket keeps the
 * highest epoch ever pushed into it; a bucket whose highest epoch is
 * still open is skipped whole. pop_ripe() re-checks the popped
 * block's own tag, so safety never depends on the bucketing.
 *
 * Blocks are allocated from a mutex-guarded arena (growth is a rare
 * cold path), are TYPE-STABLE (never freed before the depot's
 * destructor — the stack's node contract), and bounded by a block
 * budget so the depot cannot hoard unbounded memory; when the budget
 * is exhausted callers fall back to the legacy locked splice.
 *
 * Payload ordering: a block's fields (count, epoch, objs[]) are
 * written only by its exclusive owner — the thread that popped (or
 * freshly allocated) it — with plain stores. Custody transfer via
 * push (release CAS) / pop (acquire CAS) carries the happens-before
 * edge, so no payload field needs to be atomic.
 *
 * Occupancy gauges (`full_objects`, `deferred_objects`,
 * `deferred_blocks`) are maintained with relaxed atomics around each
 * custody transfer; they are exact at quiescence and monitoring hints
 * under concurrency, which is what validate() and the telemetry
 * probes need.
 */
#ifndef PRUDENCE_SLAB_MAGAZINE_DEPOT_H
#define PRUDENCE_SLAB_MAGAZINE_DEPOT_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "perturb/perturb.h"
#include "rcu/grace_period.h"
#include "slab/magazine.h"
#include "sync/cacheline.h"
#include "sync/lockfree_stack.h"

namespace prudence {

/**
 * One depot block: a whole magazine's worth of objects plus, for
 * deferred blocks, the conservative grace-period tag covering every
 * member (same ONE-read batch-tagging rule as magazine_spill_defers,
 * DESIGN.md §9).
 */
struct DepotMagazine {
    LockFreeBlockStack::Hook hook;
    /// Conservative GP tag (deferred blocks only): every member was
    /// unlinked at or before this epoch; reuse requires
    /// completed_epoch() >= epoch.
    GpEpoch epoch = 0;
    /// Telemetry stamp (raw steady ns; 0 = untraced) of the deferral
    /// spill that filled this block — batch granularity, feeding the
    /// same defer->reclaim age histogram as latent-ring entries.
    std::uint64_t defer_ts = 0;
    std::size_t count = 0;
    void* objs[kMaxMagazineCapacity];
};

/**
 * Blocks each cache's depot may create. Deferred blocks hold at most
 * half of them (the occupancy cap in magazine_spill_defers), and that
 * half is sized for the steady-state deferral backlog, update rate ×
 * grace-period latency: 128 blocks of 32 objects hold 4,096 against
 * about 3,000 in flight on prudbench's defer_storm. Deferrals then
 * reach the locked latent ring only past the backlog a grace period
 * normally covers.
 */
inline constexpr std::size_t kDepotBlockBudget = 256;

/**
 * Per-cache magazine depot: lock-free stacks of full and empty
 * DepotMagazine blocks, a ring of per-epoch deferred buckets, and a
 * budgeted type-stable arena.
 */
class MagazineDepot {
public:
    /// Deferred buckets: a block tagged `epoch` waits in bucket
    /// `epoch % kDeferredBuckets`. Eight covers the epochs a grace
    /// period keeps open (RcuDomain advances two per grace period and
    /// tags at most four ahead of the completed one) plus as many ripe
    /// ones, so a ripe bucket rarely shares a residue with an open one.
    static constexpr std::size_t kDeferredBuckets = 8;

    /// @p block_budget caps how many blocks this depot ever creates;
    /// 0 disables the depot (every acquire_empty() fails).
    explicit MagazineDepot(std::size_t block_budget)
        : block_budget_(block_budget)
    {
    }

    MagazineDepot(const MagazineDepot&) = delete;
    MagazineDepot& operator=(const MagazineDepot&) = delete;

    /**
     * Claim an empty block for the caller to fill, or nullptr when
     * none is cached and the budget is exhausted (caller falls back
     * to the locked path). The returned block is exclusively owned.
     */
    DepotMagazine* acquire_empty()
    {
        if (auto* h = empty_.pop())
            return from_hook(h);
        if (blocks_created_.load(std::memory_order_relaxed) >=
            block_budget_)
            return nullptr;
        std::lock_guard<std::mutex> guard(arena_mutex_);
        if (arena_.size() >= block_budget_)
            return nullptr;
        arena_.push_back(std::make_unique<DepotMagazine>());
        blocks_created_.store(arena_.size(),
                              std::memory_order_relaxed);
        return arena_.back().get();
    }

    /// Return an exclusively-owned (drained) block to the empty pool.
    void release_empty(DepotMagazine* block)
    {
        block->count = 0;
        block->epoch = 0;
        block->defer_ts = 0;
        empty_.push(&block->hook);
    }

    /// Publish a filled block of immediately-reusable objects.
    void push_full(DepotMagazine* block)
    {
        full_objects_.fetch_add(block->count,
                                std::memory_order_relaxed);
        full_.push(&block->hook);
    }

    /// Claim a full block (exclusive ownership), or nullptr.
    DepotMagazine* pop_full()
    {
        auto* h = full_.pop();
        if (h == nullptr)
            return nullptr;
        DepotMagazine* block = from_hook(h);
        full_objects_.fetch_sub(block->count,
                                std::memory_order_relaxed);
        return block;
    }

    /// Publish a filled, epoch-stamped block of deferred objects into
    /// its epoch's bucket.
    void push_deferred(DepotMagazine* block)
    {
        const std::size_t b = block->epoch % kDeferredBuckets;
        GpEpoch top = max_epoch_[b].load(std::memory_order_relaxed);
        while (top < block->epoch &&
               !max_epoch_[b].compare_exchange_weak(
                   top, block->epoch, std::memory_order_relaxed)) {
        }
        deferred_tally_.fetch_add(tally(block->count),
                                  std::memory_order_relaxed);
        buckets_[b].blocks.push(&block->hook);
    }

    /**
     * Claim the oldest deferred block whose grace period completed by
     * @p completed (exclusive ownership; its members are reusable), or
     * nullptr when no bucket holds a ripe block. Buckets are visited
     * in epoch order over the last kDeferredBuckets epochs; one whose
     * highest epoch is still open is skipped whole, so a ripe block
     * that shares it with an open one waits for that one to ripen.
     */
    DepotMagazine* pop_ripe(GpEpoch completed)
    {
        // Deliberate bug kUnprotectedDepotPop: skip the epoch checks
        // and hand out any deferred block. Members still inside their
        // grace period reach allocators — the reuse-before-grace-
        // period violation the model's reuse check exists to catch.
        // See BugId.
        bool unprotected = false;
        PRUDENCE_MODEL_STMT(unprotected = perturb::bug_enabled(
                                perturb::BugId::kUnprotectedDepotPop));
        for (std::size_t i = 1; i <= kDeferredBuckets; ++i) {
            const std::size_t b = (completed + i) % kDeferredBuckets;
            if (!unprotected &&
                max_epoch_[b].load(std::memory_order_relaxed) > completed)
                continue;
            auto* h = buckets_[b].blocks.pop();
            if (h == nullptr)
                continue;
            DepotMagazine* block = from_hook(h);
            // Between claiming the block and checking its tag:
            // `completed` was read before this window, so it can only
            // be stale-small — the check below stays conservative.
            PRUDENCE_PERTURB_POINT(kDepotHarvest);
            if (!unprotected && block->epoch > completed) {
                // A concurrent push raised the bucket past `completed`
                // after the check above.
                buckets_[b].blocks.push(h);
                continue;
            }
            deferred_tally_.fetch_sub(tally(block->count),
                                      std::memory_order_relaxed);
            return block;
        }
        return nullptr;
    }

    /// Claim any deferred block, ripe or not (exclusive ownership), or
    /// nullptr when none is left. The drain path: the caller must
    /// preserve the block's epoch for its members.
    DepotMagazine* pop_deferred()
    {
        for (Bucket& b : buckets_) {
            if (auto* h = b.blocks.pop()) {
                DepotMagazine* block = from_hook(h);
                deferred_tally_.fetch_sub(tally(block->count),
                                          std::memory_order_relaxed);
                return block;
            }
        }
        return nullptr;
    }

    // -- monitoring (exact at quiescence; hints under concurrency) --

    std::size_t full_objects() const
    {
        return full_objects_.load(std::memory_order_relaxed);
    }

    std::size_t deferred_objects() const
    {
        return static_cast<std::size_t>(
            deferred_tally_.load(std::memory_order_relaxed) &
            kTallyObjectMask);
    }

    std::size_t deferred_blocks() const
    {
        return static_cast<std::size_t>(
            deferred_tally_.load(std::memory_order_relaxed) >>
            kTallyBlockShift);
    }

    std::size_t empty_blocks() const { return empty_.count(); }

    std::size_t blocks_created() const
    {
        return blocks_created_.load(std::memory_order_relaxed);
    }

    std::size_t block_budget() const { return block_budget_; }

private:
    /// One epoch residue's deferred blocks, on its own cache line: the
    /// bucket being filled and the bucket being harvested are
    /// different buckets, so spillers and refills do not share a line.
    struct alignas(kCacheLineSize) Bucket {
        LockFreeBlockStack blocks;
    };

    /// The deferred tally packs blocks (high half) and objects (low
    /// half) into one word, so one relaxed RMW moves both.
    static constexpr unsigned kTallyBlockShift = 32;
    static constexpr std::uint64_t kTallyObjectMask =
        (std::uint64_t{1} << kTallyBlockShift) - 1;

    static std::uint64_t tally(std::size_t count)
    {
        return (std::uint64_t{1} << kTallyBlockShift) | count;
    }

    static DepotMagazine* from_hook(LockFreeBlockStack::Hook* h)
    {
        // hook is the first member; offsetof on a type with
        // std::atomic members is conditionally-supported, so recover
        // the block via the member's known zero offset.
        static_assert(std::is_standard_layout_v<DepotMagazine>,
                      "hook-to-block recovery needs standard layout");
        return reinterpret_cast<DepotMagazine*>(h);
    }

    const std::size_t block_budget_;

    LockFreeBlockStack full_;
    LockFreeBlockStack empty_;
    std::array<Bucket, kDeferredBuckets> buckets_;
    /// Highest epoch ever pushed into each bucket; never lowered, so
    /// every block in a bucket is ripe once its entry is <= completed.
    /// Raised once per epoch, so the line stays read-mostly and a
    /// ripe pop reads it without touching the open buckets' heads.
    alignas(kCacheLineSize)
        std::array<std::atomic<GpEpoch>, kDeferredBuckets> max_epoch_{};

    std::atomic<std::size_t> full_objects_{0};
    std::atomic<std::uint64_t> deferred_tally_{0};
    std::atomic<std::size_t> blocks_created_{0};

    std::mutex arena_mutex_;
    std::vector<std::unique_ptr<DepotMagazine>> arena_;
};

}  // namespace prudence

#endif  // PRUDENCE_SLAB_MAGAZINE_DEPOT_H
