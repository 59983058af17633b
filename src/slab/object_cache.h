/**
 * @file
 * The per-CPU object cache: a fixed-capacity LIFO of free objects
 * (paper §2.3). Not thread-safe by itself; the owning per-CPU
 * structure's lock guards it.
 */
#ifndef PRUDENCE_SLAB_OBJECT_CACHE_H
#define PRUDENCE_SLAB_OBJECT_CACHE_H

#include <cassert>
#include <cstddef>
#include <memory>

namespace prudence {

/// Fixed-capacity stack of free object pointers.
class ObjectCache
{
  public:
    explicit ObjectCache(std::size_t capacity)
        : capacity_(capacity),
          slots_(std::make_unique<void*[]>(capacity))
    {
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    /// >=, not ==: lets the compiler drop push()'s assert after a
    /// !full() check (the magazine hit path stays call-free).
    bool full() const { return count_ >= capacity_; }

    /**
     * Pop the most recently cached object; nullptr when empty.
     *
     * Warm hand-off (DESIGN.md §9): the object the *next* pop returns
     * is prefetched with write intent. A reused object's line has
     * usually gone cold during its grace period; the caller writes
     * into the returned object at once, too soon for a prefetch of it
     * to help, but the next one has a whole request to arrive.
     */
    void*
    pop()
    {
        if (count_ == 0)
            return nullptr;
        void* obj = slots_[--count_];
        if (count_ != 0)
            __builtin_prefetch(slots_[count_ - 1], 1, 3);
        return obj;
    }

    /// Push a free object; caller must ensure !full().
    void
    push(void* obj)
    {
        assert(count_ < capacity_);
        slots_[count_++] = obj;
    }

    /**
     * Remove up to @p n of the *oldest* objects into @p out (cold end
     * of the LIFO; these are the best flush victims).
     * @return number removed.
     */
    std::size_t
    take_oldest(std::size_t n, void** out)
    {
        std::size_t take = n < count_ ? n : count_;
        for (std::size_t i = 0; i < take; ++i)
            out[i] = slots_[i];
        // Compact the survivors down.
        for (std::size_t i = take; i < count_; ++i)
            slots_[i - take] = slots_[i];
        count_ -= take;
        return take;
    }

  private:
    std::size_t capacity_;
    std::size_t count_ = 0;
    std::unique_ptr<void*[]> slots_;
};

}  // namespace prudence

#endif  // PRUDENCE_SLAB_OBJECT_CACHE_H
