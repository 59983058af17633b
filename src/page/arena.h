/**
 * @file
 * A contiguous, bounded virtual-memory arena backing the buddy
 * allocator.
 *
 * The arena reserves (mmap, MAP_NORESERVE) a fixed capacity so that
 * "physical memory" in the simulation is a hard boundary: when the
 * buddy allocator has handed out every page, the system is out of
 * memory — exactly the condition the paper's Figure 3 drives SLUB+RCU
 * into. The region is advised for transparent huge pages
 * (MADV_HUGEPAGE), so first touches fault in 2 MiB at a time where the
 * host allows it.
 *
 * Construction is two-phase: Arena::create() returns std::nullopt
 * when the reservation fails (or the kArenaMap fault site fires), so
 * a startup mmap failure degrades gracefully instead of unwinding
 * through a constructor. A default-constructed Arena is the valid
 * "empty" state (no mapping, zero capacity).
 */
#ifndef PRUDENCE_PAGE_ARENA_H
#define PRUDENCE_PAGE_ARENA_H

#include <cstddef>
#include <cstdint>
#include <optional>

namespace prudence {

/// RAII owner of one mmap'd region, base-aligned to @c alignment.
class Arena
{
  public:
    /**
     * Reserve @p capacity_bytes of address space whose base is
     * aligned to @p alignment (a power of two).
     * @return the arena, or std::nullopt when the arguments are
     *         invalid or the reservation fails.
     */
    static std::optional<Arena> create(std::size_t capacity_bytes,
                                       std::size_t alignment) noexcept;

    /// The empty arena: no mapping, zero capacity, valid() == false.
    Arena() = default;
    ~Arena();

    Arena(Arena&& other) noexcept;
    Arena& operator=(Arena&& other) noexcept;

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /// True iff a region is mapped.
    bool valid() const { return base_ != nullptr; }

    /// First byte of the region (nullptr when empty).
    std::byte* base() const { return base_; }
    /// Region size in bytes (0 when empty).
    std::size_t capacity() const { return capacity_; }

    /// True iff @p p points inside the arena.
    bool
    contains(const void* p) const
    {
        auto* b = static_cast<const std::byte*>(p);
        return b >= base_ && b < base_ + capacity_;
    }

  private:
    std::byte* base_ = nullptr;
    std::size_t capacity_ = 0;
    void* raw_ = nullptr;
    std::size_t raw_size_ = 0;
};

}  // namespace prudence

#endif  // PRUDENCE_PAGE_ARENA_H
