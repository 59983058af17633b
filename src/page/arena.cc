#include "page/arena.h"

#include <sys/mman.h>

#include <utility>

#include "perturb/perturb.h"
#include "sync/cacheline.h"

namespace prudence {

std::optional<Arena>
Arena::create(std::size_t capacity_bytes, std::size_t alignment) noexcept
{
    if (capacity_bytes == 0 || !is_pow2(alignment))
        return std::nullopt;
    if (PRUDENCE_FAULT_POINT(kArenaMap))
        return std::nullopt;

    // Over-map by the alignment so we can trim to an aligned base.
    std::size_t raw_size = capacity_bytes + alignment;
    if (raw_size < capacity_bytes)  // overflow
        return std::nullopt;
    void* raw = ::mmap(nullptr, raw_size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (raw == MAP_FAILED)
        return std::nullopt;

    Arena arena;
    arena.raw_ = raw;
    arena.raw_size_ = raw_size;
    auto addr = reinterpret_cast<std::uintptr_t>(raw);
    arena.base_ =
        reinterpret_cast<std::byte*>(align_up(addr, alignment));
    arena.capacity_ = capacity_bytes;
    // Ask for 2 MiB pages, as the kernel's direct map that slab pages
    // come from is backed: one fault then populates a whole huge page
    // instead of one 4 KiB page per first touch. Advisory only; it
    // fails harmlessly where THP is unavailable and is a no-op where
    // it is set to "never".
    (void)::madvise(arena.base_, arena.capacity_, MADV_HUGEPAGE);
    return arena;
}

Arena::Arena(Arena&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)),
      raw_(std::exchange(other.raw_, nullptr)),
      raw_size_(std::exchange(other.raw_size_, 0))
{
}

Arena&
Arena::operator=(Arena&& other) noexcept
{
    if (this != &other) {
        if (raw_ != nullptr)
            ::munmap(raw_, raw_size_);
        base_ = std::exchange(other.base_, nullptr);
        capacity_ = std::exchange(other.capacity_, 0);
        raw_ = std::exchange(other.raw_, nullptr);
        raw_size_ = std::exchange(other.raw_size_, 0);
    }
    return *this;
}

Arena::~Arena()
{
    if (raw_ != nullptr)
        ::munmap(raw_, raw_size_);
}

}  // namespace prudence
