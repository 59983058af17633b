/**
 * @file
 * Per-node slab lists: full, partial and free (paper Figure 2/4).
 *
 * All list manipulation happens under the node lock. The lists are
 * intrusive and doubly-linked through SlabHeader::{prev,next} with a
 * sentinel per list.
 */
#ifndef PRUDENCE_SLAB_NODE_LISTS_H
#define PRUDENCE_SLAB_NODE_LISTS_H

#include <cstddef>

#include "slab/slab_header.h"
#include "sync/spinlock.h"

namespace prudence {

/// One intrusive slab list with a sentinel and a count.
class SlabList
{
  public:
    SlabList()
    {
        sentinel_.prev = &sentinel_;
        sentinel_.next = &sentinel_;
    }

    bool empty() const { return sentinel_.next == &sentinel_; }
    std::size_t size() const { return count_; }

    /// First slab, or nullptr when empty.
    SlabHeader*
    front() const
    {
        return empty() ? nullptr : sentinel_.next;
    }

    /// Insert @p slab at the head.
    void
    push_front(SlabHeader* slab)
    {
        slab->next = sentinel_.next;
        slab->prev = &sentinel_;
        sentinel_.next->prev = slab;
        sentinel_.next = slab;
        ++count_;
    }

    /// Insert @p slab at the tail.
    void
    push_back(SlabHeader* slab)
    {
        slab->prev = sentinel_.prev;
        slab->next = &sentinel_;
        sentinel_.prev->next = slab;
        sentinel_.prev = slab;
        ++count_;
    }

    /// Unlink @p slab (must be on this list).
    void
    remove(SlabHeader* slab)
    {
        slab->prev->next = slab->next;
        slab->next->prev = slab->prev;
        slab->prev = nullptr;
        slab->next = nullptr;
        --count_;
    }

    /// Make @p slab (on this list) the front: the slabs ahead of it
    /// move, in order, to the tail. O(1), whatever their number.
    void
    rotate_to_front(SlabHeader* slab)
    {
        SlabHeader* first = sentinel_.next;
        if (slab == first)
            return;
        SlabHeader* last = slab->prev;
        SlabHeader* tail = sentinel_.prev;
        sentinel_.next = slab;
        slab->prev = &sentinel_;
        tail->next = first;
        first->prev = tail;
        last->next = &sentinel_;
        sentinel_.prev = last;
    }

    /// Iterate: fn(SlabHeader*) for each slab; stops early when fn
    /// returns false.
    template <typename Fn>
    void
    for_each(Fn&& fn) const
    {
        for (SlabHeader* s = sentinel_.next; s != &sentinel_;) {
            SlabHeader* next = s->next;  // fn may unlink s
            if (!fn(s))
                return;
            s = next;
        }
    }

  private:
    mutable SlabHeader sentinel_;
    std::size_t count_ = 0;
};

/// The full/partial/free triple for one node, plus its lock.
struct NodeLists
{
    SpinLock lock;
    SlabList full;
    SlabList partial;
    SlabList free;

    /// List object for @p kind.
    SlabList&
    list_for(SlabListKind kind)
    {
        switch (kind) {
          case SlabListKind::kFull:
            return full;
          case SlabListKind::kPartial:
            return partial;
          default:
            return free;
        }
    }

    /// Move @p slab to the list @p kind (node lock held). No-op when
    /// already there. Every list is kept in FIFO order (append at the
    /// tail): the slabs that have waited longest — whose deferred
    /// objects are most likely past their grace period — surface at
    /// the front of refill scans and shrink passes.
    void
    move_to(SlabHeader* slab, SlabListKind kind)
    {
        if (slab->list_kind == kind)
            return;
        if (slab->list_kind != SlabListKind::kNone)
            list_for(slab->list_kind).remove(slab);
        if (kind != SlabListKind::kNone)
            list_for(kind).push_back(slab);
        slab->list_kind = kind;
    }

    /// Move @p slab to the head of the partial list (node lock held):
    /// the one exception to FIFO order, for the slab a refill draws
    /// from, so the refills after it drain it first.
    void
    move_to_partial_front(SlabHeader* slab)
    {
        if (slab->list_kind != SlabListKind::kNone)
            list_for(slab->list_kind).remove(slab);
        partial.push_front(slab);
        slab->list_kind = SlabListKind::kPartial;
    }

    /**
     * The list a slab belongs on from its freelist state alone (the
     * baseline rule; Prudence's pre-movement deliberately deviates
     * by also considering deferred objects).
     */
    static SlabListKind
    natural_kind(const SlabHeader* slab)
    {
        if (slab->free_count == 0)
            return SlabListKind::kFull;
        if (slab->free_count == slab->total_objects)
            return SlabListKind::kFree;
        return SlabListKind::kPartial;
    }

    /**
     * The deferred-aware placement rule (Prudence): a slab whose
     * latent ring holds objects is never "full" — its space is about
     * to come back (§4.2 pre-movement) — and a slab whose every
     * allocated object is deferred belongs on the free list. Slabs
     * carrying unmerged ring entries must stay visible to the
     * partial/free scans, or their memory is stranded.
     */
    static SlabListKind
    deferred_aware_kind(const SlabHeader* slab)
    {
        std::uint32_t deferred =
            slab->deferred_count.load(std::memory_order_acquire);
        if (slab->free_count + deferred == slab->total_objects)
            return SlabListKind::kFree;
        if (slab->free_count == 0 && deferred == 0)
            return SlabListKind::kFull;
        return SlabListKind::kPartial;
    }
};

}  // namespace prudence

#endif  // PRUDENCE_SLAB_NODE_LISTS_H
