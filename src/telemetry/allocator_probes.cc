/**
 * @file
 * Default Allocator telemetry-probe registration: every signal
 * derivable from the public Allocator surface, so both engines get a
 * baseline probe set without engine-specific code.
 *
 * Lives in the telemetry library (not api/) so Allocator keeps no
 * out-of-line virtual — its vtable/typeinfo stay weakly emitted in
 * every consumer, and libraries linking an allocator engine need not
 * also link api/.
 */
#include "api/allocator.h"

#include "page/buddy_allocator.h"
#include "telemetry/monitor.h"

namespace prudence::telemetry::detail {

void
register_default_allocator_probes(Allocator& a, ProbeGroup& group,
                                  const std::string& prefix)
{
    // Deferred objects across every cache: the latent-ring/backlog
    // population (count) and its footprint (bytes). One snapshots()
    // walk per probe per sampling round — the walk is per-cache
    // counter folds, cheap at a 10 ms cadence.
    group.add(prefix + "alloc.latent_objects", "objects", [&a] {
        std::uint64_t n = 0;
        for (const CacheStatsSnapshot& s : a.snapshots()) {
            if (s.deferred_outstanding > 0)
                n += static_cast<std::uint64_t>(s.deferred_outstanding);
        }
        return n;
    });
    group.add(prefix + "alloc.latent_bytes", "bytes", [&a] {
        std::uint64_t bytes = 0;
        for (const CacheStatsSnapshot& s : a.snapshots()) {
            if (s.deferred_outstanding > 0)
                bytes +=
                    static_cast<std::uint64_t>(s.deferred_outstanding) *
                    s.object_size;
        }
        return bytes;
    });
    group.add(prefix + "alloc.live_objects", "objects", [&a] {
        std::uint64_t n = 0;
        for (const CacheStatsSnapshot& s : a.snapshots()) {
            if (s.live_objects > 0)
                n += static_cast<std::uint64_t>(s.live_objects);
        }
        return n;
    });
    a.page_allocator().register_telemetry_probes(group, prefix);
}

}  // namespace prudence::telemetry::detail
