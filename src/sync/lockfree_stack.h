/**
 * @file
 * Tagged-pointer Treiber stack over type-stable intrusive blocks.
 *
 * This is the transfer primitive behind the lock-free per-CPU layer
 * (DESIGN.md §14): the magazine depot keeps whole magazines on three
 * of these stacks (full / deferred / empty), so a ThreadMagazines
 * refill or flush becomes one successful CAS instead of a locked
 * splice. The construction follows Blelloch–Wei's constant-time
 * fixed-size allocation shape: every linked node is a fixed-size
 * block drawn from a type-stable arena, pop/push are bounded-claim
 * CAS loops, and ABA protection is a cheap packed tag because block
 * *reuse* (the dangerous half of ABA) is already ordered by the epoch
 * machinery riding above this structure.
 *
 * ## Requirements on nodes
 *
 *  - Nodes embed a LockFreeBlockStack::Hook and are TYPE-STABLE: once
 *    linked into any stack of a given owner, the memory may be
 *    recycled between stacks but is never returned to the OS (or
 *    reused as anything else) until the owner's destructor. This
 *    makes the classic Treiber read of `head->next` safe: a concurrent
 *    pop may have claimed the node, but the memory is still a Hook.
 *  - `Hook::next` is an atomic pointer; reads/writes race benignly
 *    (relaxed) because a stale `next` only makes the CAS fail.
 *
 * ## ABA argument
 *
 * `head_` packs {tag:16 | pointer:48} into one 64-bit word; every
 * successful push or pop increments the tag, so a pop's CAS succeeds
 * only if *no* operation completed between its head snapshot and its
 * CAS — the plain Treiber A→B→A hazard (same head pointer, different
 * `next`) requires at least two completed operations and therefore
 * a tag difference of >= 2. The 16-bit tag wraps after 65536
 * operations inside one pop window; that alone is an astronomically
 * small single-preemption hazard, and in the depot it is additionally
 * dominated by the epoch machinery: a deferred block cannot re-enter
 * circulation while a grace period covering its unlink is open, so
 * the only blocks that can cycle quickly are empties, whose payload
 * is dead. See DESIGN.md §14 for the full argument.
 *
 * ## Memory-order contract
 *
 *  | operation              | order            | why                    |
 *  |------------------------|------------------|------------------------|
 *  | push: head_ CAS        | release / relaxed| publishes the caller's |
 *  |                        |                  | plain writes to the    |
 *  |                        |                  | block payload          |
 *  | pop: head_ load        | acquire          | pairs with push CAS:   |
 *  |                        |                  | payload of the popped  |
 *  |                        |                  | block is visible       |
 *  | pop: head_ CAS         | acquire / relaxed| same pairing on the    |
 *  |                        |                  | successful exchange    |
 *  | Hook::next load/store  | relaxed          | stale values only fail |
 *  |                        |                  | the CAS (type-stable)  |
 *
 * A thread that fills a block's payload with plain stores and then
 * push()es it happens-before any thread that pop()s that block and
 * reads the payload. No other ordering is promised.
 */
#ifndef PRUDENCE_SYNC_LOCKFREE_STACK_H
#define PRUDENCE_SYNC_LOCKFREE_STACK_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "perturb/perturb.h"

namespace prudence {

/**
 * Lock-free LIFO of type-stable intrusive blocks (see file comment
 * for the node contract and memory-order table).
 */
class LockFreeBlockStack {
public:
    /// Intrusive link; embed one per block. `next` is atomic only to
    /// make the benign pop-time race on a claimed node well-defined.
    struct Hook {
        std::atomic<Hook*> next{nullptr};
    };

    LockFreeBlockStack() = default;
    LockFreeBlockStack(const LockFreeBlockStack&) = delete;
    LockFreeBlockStack& operator=(const LockFreeBlockStack&) = delete;

    /**
     * Push @p node. Lock-free (bounded only by contention); the
     * caller's prior plain writes to the surrounding block are
     * published to the eventual popper (release).
     */
    void push(Hook* node)
    {
        std::uint64_t head = head_.load(std::memory_order_relaxed);
        for (;;) {
            node->next.store(unpack_ptr(head),
                             std::memory_order_relaxed);
            PRUDENCE_PERTURB_POINT(kLfStackPush);
            if (head_.compare_exchange_weak(
                    head, pack(node, unpack_tag(head) + 1),
                    std::memory_order_release,
                    std::memory_order_relaxed)) {
                count_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
        }
    }

    /**
     * Pop the most recently pushed block, or nullptr when empty.
     * Acquire on success: the pusher's payload writes are visible.
     */
    Hook* pop()
    {
        std::uint64_t head = head_.load(std::memory_order_acquire);
        for (;;) {
            Hook* node = unpack_ptr(head);
            if (node == nullptr)
                return nullptr;
            // Safe even if another thread pops `node` first: blocks
            // are type-stable, and a stale `next` fails the CAS
            // (tag moved).
            Hook* next = node->next.load(std::memory_order_relaxed);
            PRUDENCE_PERTURB_POINT(kLfStackPop);
            if (head_.compare_exchange_weak(
                    head, pack(next, unpack_tag(head) + 1),
                    std::memory_order_acquire,
                    std::memory_order_acquire)) {
                count_.fetch_sub(1, std::memory_order_relaxed);
                node->next.store(nullptr, std::memory_order_relaxed);
                return node;
            }
        }
    }

    /// True iff the stack observed no blocks at the load.
    bool empty() const
    {
        return unpack_ptr(head_.load(std::memory_order_acquire)) ==
               nullptr;
    }

    /// Block count; exact only at quiescence, a monitoring hint
    /// otherwise.
    std::size_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

private:
    static constexpr unsigned kTagBits = 16;
    static constexpr unsigned kPtrBits = 48;
    static constexpr std::uint64_t kPtrMask =
        (std::uint64_t{1} << kPtrBits) - 1;

    static_assert(sizeof(void*) == 8,
                  "tagged-pointer packing requires 64-bit pointers");

    static std::uint64_t pack(Hook* p, std::uint64_t tag)
    {
        return (tag << kPtrBits) |
               (reinterpret_cast<std::uint64_t>(p) & kPtrMask);
    }

    static Hook* unpack_ptr(std::uint64_t word)
    {
        // Sign-extend bit 47 so kernel-half addresses round-trip on
        // platforms that use them; user-space allocations leave the
        // top bits zero and this is a plain mask.
        std::int64_t v = static_cast<std::int64_t>(word << kTagBits);
        return reinterpret_cast<Hook*>(v >> kTagBits);
    }

    static std::uint64_t unpack_tag(std::uint64_t word)
    {
        return word >> kPtrBits;
    }

    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::size_t> count_{0};
};

}  // namespace prudence

#endif  // PRUDENCE_SYNC_LOCKFREE_STACK_H
