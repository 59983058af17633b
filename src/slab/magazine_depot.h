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
 *   - harvest          → pop_deferred(); if the stamped grace period
 *                        completed, the block becomes a full block
 *                        (or feeds slab freelists), else re-push
 *
 * Blocks live on three LockFreeBlockStack instances (full, deferred,
 * empty). They are allocated from a mutex-guarded arena (growth is a
 * rare cold path), are TYPE-STABLE (never freed before the depot's
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
 * Object-count gauges (`full_objects`, `deferred_objects`) are
 * maintained with relaxed atomics around each custody transfer; they
 * are exact at quiescence and monitoring hints under concurrency,
 * which is what validate() and the telemetry probes need.
 */
#ifndef PRUDENCE_SLAB_MAGAZINE_DEPOT_H
#define PRUDENCE_SLAB_MAGAZINE_DEPOT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "rcu/grace_period.h"
#include "slab/magazine.h"
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
 * Per-cache magazine depot: three lock-free stacks of DepotMagazine
 * blocks plus a budgeted type-stable arena.
 */
class MagazineDepot {
public:
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

    /// Publish a filled, epoch-stamped block of deferred objects.
    void push_deferred(DepotMagazine* block)
    {
        deferred_objects_.fetch_add(block->count,
                                    std::memory_order_relaxed);
        deferred_.push(&block->hook);
    }

    /// Claim a deferred block (exclusive ownership), or nullptr. The
    /// caller must check `epoch` against the completed epoch before
    /// reusing members, and re-push when the grace period is open.
    DepotMagazine* pop_deferred()
    {
        auto* h = deferred_.pop();
        if (h == nullptr)
            return nullptr;
        DepotMagazine* block = from_hook(h);
        deferred_objects_.fetch_sub(block->count,
                                    std::memory_order_relaxed);
        return block;
    }

    // -- monitoring (exact at quiescence; hints under concurrency) --

    std::size_t full_objects() const
    {
        return full_objects_.load(std::memory_order_relaxed);
    }

    std::size_t deferred_objects() const
    {
        return deferred_objects_.load(std::memory_order_relaxed);
    }

    std::size_t deferred_blocks() const { return deferred_.count(); }
    std::size_t empty_blocks() const { return empty_.count(); }

    std::size_t blocks_created() const
    {
        return blocks_created_.load(std::memory_order_relaxed);
    }

    std::size_t block_budget() const { return block_budget_; }

private:
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
    LockFreeBlockStack deferred_;
    LockFreeBlockStack empty_;

    std::atomic<std::size_t> full_objects_{0};
    std::atomic<std::size_t> deferred_objects_{0};
    std::atomic<std::size_t> blocks_created_{0};

    std::mutex arena_mutex_;
    std::vector<std::unique_ptr<DepotMagazine>> arena_;
};

}  // namespace prudence

#endif  // PRUDENCE_SLAB_MAGAZINE_DEPOT_H
