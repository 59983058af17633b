#include "perturb/ref_model.h"

namespace prudence::perturb {

std::atomic<ModelChecker*> ModelChecker::installed_{nullptr};

void
ModelChecker::install(ModelChecker* checker)
{
    installed_.store(checker, std::memory_order_release);
}

ModelChecker*
ModelChecker::installed()
{
    return installed_.load(std::memory_order_acquire);
}

void
ModelChecker::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    objects_.clear();
    readers_.clear();
    violations_.clear();
    violation_count_.store(0, std::memory_order_release);
}

void
ModelChecker::record(Violation v)
{
    violations_.push_back(std::move(v));
    violation_count_.fetch_add(1, std::memory_order_release);
}

void
ModelChecker::on_defer(const void* obj, std::uint64_t epoch_now)
{
    std::lock_guard<std::mutex> lk(mu_);
    Tracked& t = objects_[obj];
    t.defer_epoch = epoch_now;
    t.tag = 0;
    t.spilled = false;
}

void
ModelChecker::on_spill(const void* obj, std::uint64_t tag)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = objects_.find(obj);
    if (it == objects_.end())
        return;  // deferred before the session started; not tracked
    Tracked& t = it->second;
    t.tag = tag;
    t.spilled = true;
    if (tag < t.defer_epoch) {
        Violation v;
        v.kind = "spill_tag_below_defer_epoch";
        v.object = obj;
        v.defer_epoch = t.defer_epoch;
        v.tag = tag;
        record(std::move(v));
    }
}

void
ModelChecker::on_reuse(const void* obj)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = objects_.find(obj);
    if (it == objects_.end())
        return;
    const Tracked t = it->second;
    objects_.erase(it);

    // The object needed (at least) its defer-time epoch's grace period
    // to elapse; a correctly conservative tag is >= that, so checking
    // against defer_epoch never flags a correct allocator while still
    // catching tags forged too small.
    const std::uint64_t required = t.defer_epoch;
    const std::uint64_t completed =
        completed_provider_ ? completed_provider_() : ~std::uint64_t{0};
    if (completed < required) {
        Violation v;
        v.kind = "reuse_before_grace_period";
        v.object = obj;
        v.defer_epoch = t.defer_epoch;
        v.tag = t.tag;
        v.completed = completed;
        record(std::move(v));
        return;
    }
    // No live reader may still hold a snapshot from before the
    // object's grace period ended: such a reader could still hold a
    // reference obtained before the defer.
    for (const auto& [slot, snap] : readers_) {
        if (snap != 0 && snap <= required) {
            Violation v;
            v.kind = "reuse_inside_reader_section";
            v.object = obj;
            v.defer_epoch = t.defer_epoch;
            v.tag = t.tag;
            v.completed = snap;
            record(std::move(v));
            return;
        }
    }
}

void
ModelChecker::on_reader_lock(std::uint64_t reader_slot,
                             std::uint64_t snapshot)
{
    std::lock_guard<std::mutex> lk(mu_);
    readers_[reader_slot] = snapshot;
}

void
ModelChecker::on_reader_unlock(std::uint64_t reader_slot)
{
    std::lock_guard<std::mutex> lk(mu_);
    readers_.erase(reader_slot);
}

std::vector<Violation>
ModelChecker::violations() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return violations_;
}

std::size_t
ModelChecker::tracked() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return objects_.size();
}

void
model_on_defer(const void* obj, std::uint64_t epoch_now)
{
    if (ModelChecker* m = ModelChecker::installed())
        m->on_defer(obj, epoch_now);
}

void
model_on_spill(const void* obj, std::uint64_t tag)
{
    if (ModelChecker* m = ModelChecker::installed())
        m->on_spill(obj, tag);
}

void
model_on_reuse(const void* obj)
{
    if (ModelChecker* m = ModelChecker::installed())
        m->on_reuse(obj);
}

void
model_on_reader_lock(std::uint64_t slot, std::uint64_t snapshot)
{
    if (ModelChecker* m = ModelChecker::installed())
        m->on_reader_lock(slot, snapshot);
}

void
model_on_reader_unlock(std::uint64_t slot)
{
    if (ModelChecker* m = ModelChecker::installed())
        m->on_reader_unlock(slot);
}

}  // namespace prudence::perturb
