/**
 * @file
 * Bounded lock-free MPMC ring of object pointers (Vyukov-style).
 *
 * The slub baseline's per-CPU caches hold *objects*, not magazine
 * blocks; threading an intrusive link through freed user memory would
 * race with the application's own last writes, so instead of the
 * depot's intrusive stack the per-CPU layer uses this array-based
 * ring: each cell carries a sequence counter that encodes both the
 * cell's lap and whether it holds data, so producers and consumers
 * claim cells with one fetch-free CAS each and never touch each
 * other's cachelines beyond the two position counters.
 *
 * ## Memory-order contract
 *
 *  | operation                | order   | why                         |
 *  |--------------------------|---------|-----------------------------|
 *  | sequence load            | acquire | pairs with the release      |
 *  |                          |         | store; makes the previous   |
 *  |                          |         | occupant's cell writes      |
 *  |                          |         | visible before reuse        |
 *  | position CAS             | relaxed | claims the cell; ordering   |
 *  |                          |         | is carried by the sequence  |
 *  | sequence store (publish) | release | publishes the plain cell    |
 *  |                          |         | payload write               |
 *
 * A push()'s payload store happens-before the pop() that returns it
 * (sequence release/acquire pairing). Capacity is rounded up to a
 * power of two; `count()` is exact at quiescence and a hint under
 * concurrency. ABA is structurally impossible: a cell is only
 * reusable after its sequence advances a full lap, and positions are
 * 64-bit (no wrap in practice).
 */
#ifndef PRUDENCE_SYNC_LOCKFREE_RING_H
#define PRUDENCE_SYNC_LOCKFREE_RING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "perturb/perturb.h"
#include "sync/cacheline.h"

namespace prudence {

/// Bounded MPMC queue of void* (see file comment). FIFO per the
/// claim order; used as an unordered per-CPU object pool.
class LockFreeRing {
public:
    /// @p capacity is rounded up to the next power of two (min 2).
    explicit LockFreeRing(std::size_t capacity)
        : capacity_(next_pow2(capacity < 2 ? 2 : capacity)),
          mask_(capacity_ - 1),
          cells_(std::make_unique<Cell[]>(capacity_))
    {
        for (std::size_t i = 0; i < capacity_; ++i)
            cells_[i].sequence.store(i, std::memory_order_relaxed);
    }

    LockFreeRing(const LockFreeRing&) = delete;
    LockFreeRing& operator=(const LockFreeRing&) = delete;

    /// Enqueue @p obj; false when the ring is full (caller falls back
    /// to the shared slow path).
    bool push(void* obj)
    {
        std::uint64_t pos =
            enqueue_pos_.load(std::memory_order_relaxed);
        for (;;) {
            Cell& cell = cells_[pos & mask_];
            std::uint64_t seq =
                cell.sequence.load(std::memory_order_acquire);
            std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                PRUDENCE_PERTURB_POINT(kLfRing);
                if (enqueue_pos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    cell.object = obj;
                    cell.sequence.store(pos + 1,
                                        std::memory_order_release);
                    return true;
                }
            } else if (dif < 0) {
                return false;  // full lap behind: ring is full
            } else {
                pos = enqueue_pos_.load(std::memory_order_relaxed);
            }
        }
    }

    /// Dequeue one object, or nullptr when empty.
    void* pop()
    {
        std::uint64_t pos =
            dequeue_pos_.load(std::memory_order_relaxed);
        for (;;) {
            Cell& cell = cells_[pos & mask_];
            std::uint64_t seq =
                cell.sequence.load(std::memory_order_acquire);
            std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                PRUDENCE_PERTURB_POINT(kLfRing);
                if (dequeue_pos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    void* obj = cell.object;
                    cell.sequence.store(pos + capacity_,
                                        std::memory_order_release);
                    return obj;
                }
            } else if (dif < 0) {
                return nullptr;  // cell not yet published: empty
            } else {
                pos = dequeue_pos_.load(std::memory_order_relaxed);
            }
        }
    }

    /// Occupancy; exact at quiescence, monitoring hint otherwise.
    std::size_t count() const
    {
        std::uint64_t enq =
            enqueue_pos_.load(std::memory_order_acquire);
        std::uint64_t deq =
            dequeue_pos_.load(std::memory_order_acquire);
        return enq >= deq ? static_cast<std::size_t>(enq - deq) : 0;
    }

    std::size_t capacity() const { return capacity_; }

private:
    struct Cell {
        std::atomic<std::uint64_t> sequence{0};
        void* object = nullptr;
    };

    const std::size_t capacity_;
    const std::size_t mask_;
    std::unique_ptr<Cell[]> cells_;

    alignas(kCacheLineSize) std::atomic<std::uint64_t> enqueue_pos_{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace prudence

#endif  // PRUDENCE_SYNC_LOCKFREE_RING_H
