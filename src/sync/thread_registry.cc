#include "sync/thread_registry.h"

#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace prudence {

namespace {

std::atomic<std::uint64_t> g_thread_registry_serial{1};

/// Liveness table: registry serial → instance pointer. A thread-exit
/// releaser consults this so that a registry destroyed before one of
/// its registered threads exits is simply skipped (its slots died
/// with it).
std::mutex g_live_mutex;
std::unordered_map<std::uint64_t, ThreadRegistry*>&
live_registries()
{
    static auto* table =
        new std::unordered_map<std::uint64_t, ThreadRegistry*>();
    return *table;
}

}  // namespace

/// Thread-local record of every slot this thread holds; destructor
/// releases them back to registries that still exist.
struct ThreadSlotReleaser
{
    struct Entry
    {
        std::uint64_t serial;
        ThreadSlot* slot;
    };
    std::vector<Entry> entries;

    ~ThreadSlotReleaser()
    {
        std::lock_guard<std::mutex> lock(g_live_mutex);
        for (const Entry& e : entries) {
            auto it = live_registries().find(e.serial);
            if (it != live_registries().end())
                it->second->release_slot(e.slot);
        }
    }

    ThreadSlot*
    find(std::uint64_t serial) const
    {
        for (const Entry& e : entries) {
            if (e.serial == serial)
                return e.slot;
        }
        return nullptr;
    }
};

namespace {
thread_local ThreadSlotReleaser t_releaser;
}  // namespace

ThreadRegistry::ThreadRegistry(std::size_t capacity)
    : serial_(g_thread_registry_serial.fetch_add(1,
                                                 std::memory_order_relaxed)),
      capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<ThreadSlot[]>(capacity == 0 ? 1 : capacity))
{
    std::lock_guard<std::mutex> lock(g_live_mutex);
    live_registries().emplace(serial_, this);
}

ThreadRegistry::~ThreadRegistry()
{
    std::lock_guard<std::mutex> lock(g_live_mutex);
    live_registries().erase(serial_);
}

ThreadSlot&
ThreadRegistry::slot()
{
    if (ThreadSlot* cached = t_releaser.find(serial_))
        return *cached;
    ThreadSlot* s = acquire_slot();
    t_releaser.entries.push_back({serial_, s});
    return *s;
}

ThreadSlot*
ThreadRegistry::acquire_slot()
{
    std::lock_guard<std::mutex> lock(acquire_mutex_);
    for (std::size_t i = 0; i < capacity_; ++i) {
        ThreadSlot& s = slots_[i];
        // Acquire pairs with release_slot(): the previous owner's
        // owner-only writes (nesting, section stamp) happen before
        // ours.
        if (!s.in_use.load(std::memory_order_acquire)) {
            s.value.store(0, std::memory_order_relaxed);
            s.nesting = 0;
            s.in_use.store(true, std::memory_order_release);
            std::size_t hi = high_water_.load(std::memory_order_relaxed);
            if (i + 1 > hi)
                high_water_.store(i + 1, std::memory_order_release);
            return &s;
        }
    }
    throw std::runtime_error(
        "ThreadRegistry: slot capacity exhausted (too many threads)");
}

void
ThreadRegistry::release_slot(ThreadSlot* slot)
{
    // Zero the state word first so a concurrent grace-period scan sees
    // a quiescent thread rather than a stale epoch.
    slot->value.store(0, std::memory_order_release);
    slot->in_use.store(false, std::memory_order_release);
}

std::size_t
ThreadRegistry::registered_count() const
{
    std::size_t n = 0;
    for_each_slot([&n](const ThreadSlot&) { ++n; });
    return n;
}

}  // namespace prudence
