#include "slab/magazine_front.h"

#include <algorithm>
#include <memory>

namespace prudence {

MagazineFront::MagazineFront(std::size_t capacity, CpuRegistry& cpus,
                             std::function<void(ThreadMagazines&)> drain)
    : capacity_(capacity),
      cpus_(cpus),
      registry_(ThreadCacheRegistry::Hooks{
          [drain = std::move(drain)](void* t) {
              drain(*static_cast<ThreadMagazines*>(t));
          },
          [](void* t) { delete static_cast<ThreadMagazines*>(t); }})
{
}

ThreadMagazines&
MagazineFront::table()
{
    if (ThreadMagazines* t = current())
        return *t;
    // First touch: resolve the CPU id ONCE — the magazine pins thread
    // identity, so per-operation CpuRegistry lookups are hoisted out
    // of the hot path for the life of the thread.
    auto* t = new ThreadMagazines(cpus_.cpu_id());
    registry_.attach(t);
    return *t;
}

Magazine&
MagazineFront::magazine(ThreadMagazines& t, std::size_t index,
                        std::size_t cache_capacity) const
{
    auto& slot = t.mags[index];
    if (!slot) {
        std::size_t cap = std::min({capacity_, cache_capacity,
                                    kMaxMagazineCapacity});
        slot = std::make_unique<Magazine>(cap > 0 ? cap : 1);
    }
    return *slot;
}

}  // namespace prudence
