#include "event_queue.hh"

#include <mutex>
#include <unordered_set>

#include "logging.hh"
#include "profiler.hh"

namespace pciesim
{

Event::~Event() = default;

const char *
internEventName(const std::string &name)
{
    // Node-based set: element addresses are stable across rehash.
    // Interned names live for the process; events are constructed
    // once per component, so the table stays small. Guarded by a
    // mutex: components may be built (and events named) by worker
    // threads once the parallel engine exists, and interning is
    // nowhere near any hot path.
    static std::mutex mutex;
    static std::unordered_set<std::string> names;
    std::lock_guard<std::mutex> lock(mutex);
    return names.insert(name).first->c_str();
}

void
EventQueue::siftUp(std::size_t i)
{
    Slot s = far_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / arity;
        if (!before(s, far_[parent]))
            break;
        setFar(i, far_[parent]);
        i = parent;
    }
    setFar(i, s);
}

void
EventQueue::siftDown(std::size_t i)
{
    Slot s = far_[i];
    const std::size_t n = far_.size();
    while (true) {
        std::size_t first = i * arity + 1;
        if (first >= n)
            break;
        std::size_t last = first + arity < n ? first + arity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(far_[c], far_[best]))
                best = c;
        }
        if (!before(far_[best], s))
            break;
        setFar(i, far_[best]);
        i = best;
    }
    setFar(i, s);
}

void
EventQueue::siftAny(std::size_t i)
{
    if (i > 0 && before(far_[i], far_[(i - 1) / arity]))
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::farPush(const Slot &s)
{
    far_.push_back(s);
    siftUp(far_.size() - 1);
}

void
EventQueue::farRemoveAt(std::size_t i)
{
    far_[i].event->slot_ = Event::invalidSlot;
    Slot last = far_.back();
    far_.pop_back();
    if (i < far_.size()) {
        setFar(i, last);
        siftAny(i);
    }
}

void
EventQueue::refill()
{
    // Pops come out earliest first; the near tier is latest first.
    const std::size_t k = far_.size() < nearCap ? far_.size() : nearCap;
    near_.resize(k);
    for (std::size_t p = k; p-- > 0;) {
        const Slot top = far_[0];
        farRemoveAt(0);
        setNear(p, top);
    }
}

void
EventQueue::insert(const Slot &s)
{
    // A key no earlier than a full near tier's latest slot, or than
    // the far tier's earliest, belongs in the far tier.
    const std::size_t n = near_.size();
    if (n == nearCap) {
        if (!before(s, near_[0])) {
            farPush(s);
            return;
        }
        // Evict the latest near slot and let s take its place.
        farPush(near_[0]);
        placeNear(0, s);
        return;
    }
    if (!far_.empty() && !before(s, far_[0])) {
        farPush(s);
        return;
    }
    near_.push_back(s);
    placeNear(n, s);
}

void
EventQueue::placeNear(std::size_t p, const Slot &s)
{
    // Latest first, so a later key moves towards index 0.
    while (p > 0 && before(near_[p - 1], s)) {
        setNear(p, near_[p - 1]);
        --p;
    }
    while (p + 1 < near_.size() && before(s, near_[p + 1])) {
        setNear(p, near_[p + 1]);
        ++p;
    }
    setNear(p, s);
}

void
EventQueue::nearRemoveAt(std::size_t p)
{
    near_[p].event->slot_ = Event::invalidSlot;
    const std::size_t n = near_.size();
    for (std::size_t q = p; q + 1 < n; ++q)
        setNear(q, near_[q + 1]);
    near_.pop_back();
}

void
EventQueue::requeue(Event *event, const Slot &s)
{
    event->when_ = s.when;
    const std::size_t slot = event->slot_;
    if (slot & farTag) {
        const std::size_t i = slot & ~farTag;
        panicIf(i >= far_.size() || far_[i].event != event,
                "event '", event->name(), "' queue slot out of sync");
        // near_ is non-empty whenever far_ is.
        if (!before(s, near_[0])) {
            far_[i] = s;
            siftAny(i);
        } else {
            farRemoveAt(i);
            insert(s);
        }
        return;
    }
    panicIf(slot >= near_.size() || near_[slot].event != event,
            "event '", event->name(), "' queue slot out of sync");
    if (!far_.empty() && !before(s, far_[0])) {
        nearRemoveAt(slot);
        farPush(s);
        refillIfDrained();
        return;
    }
    placeNear(slot, s);
}

void
EventQueue::auditTiers() const
{
#ifdef PCIESIM_ENABLE_AUDIT
    auto check_slot = [this](const Slot &s, std::size_t tagged,
                             const char *tier) {
        PCIESIM_AUDIT(s.event != nullptr,
                      tier, " slot ", tagged, " holds no event");
        PCIESIM_AUDIT(s.event->slot_ == tagged,
                      "event '", s.event->name(), "' slot index ",
                      s.event->slot_, " != ", tier, " slot ", tagged);
        PCIESIM_AUDIT(s.when == s.event->when_,
                      "event '", s.event->name(), "' slot key tick ",
                      s.when, " != event tick ", s.event->when_);
        PCIESIM_AUDIT(s.when >= curTick_,
                      "event '", s.event->name(),
                      "' scheduled in the past (", s.when, " < ",
                      curTick_, ")");
    };
    PCIESIM_AUDIT(near_.size() <= nearCap,
                  "near tier holds ", near_.size(), " > ", nearCap,
                  " slots");
    PCIESIM_AUDIT(!near_.empty() || far_.empty(),
                  "near tier empty with ", far_.size(),
                  " far slots pending");
    for (std::size_t p = 0; p < near_.size(); ++p) {
        check_slot(near_[p], p, "near");
        if (p > 0) {
            PCIESIM_AUDIT(before(near_[p], near_[p - 1]),
                          "near tier unsorted at slot ", p, " ('",
                          near_[p].event->name(), "')");
        }
    }
    if (!near_.empty() && !far_.empty()) {
        PCIESIM_AUDIT(before(near_[0], far_[0]),
                      "near tier max ('", near_[0].event->name(),
                      "') orders after far tier min ('",
                      far_[0].event->name(), "')");
    }
    for (std::size_t i = 0; i < far_.size(); ++i) {
        const Slot &s = far_[i];
        check_slot(s, farTag | i, "far");
        if (i > 0) {
            const Slot &parent = far_[(i - 1) / arity];
            PCIESIM_AUDIT(!before(s, parent),
                          "heap order violated between far slot ", i,
                          " ('", s.event->name(), "') and its parent");
        }
    }
#endif
}

void
EventQueue::schedule(Event *event, Tick when)
{
    panicIf(event == nullptr, "scheduling null event");
    panicIf(event->scheduled(),
            "event '", event->name(), "' scheduled twice");
    panicIf(when < curTick_,
            "event '", event->name(), "' scheduled in the past (",
            when, " < ", curTick_, ")");

    event->when_ = when;
    if (parallelKeys_)
        insert({when, curTick_, nextTie(), event});
    else
        insert({when, nextOrder_++, 0, event});
    maybeAudit();
}

void
EventQueue::scheduleKeyed(Event *event, Tick when, Tick key_order,
                          std::uint64_t key_tie)
{
    panicIf(event == nullptr, "scheduling null event");
    panicIf(event->scheduled(),
            "event '", event->name(), "' scheduled twice");
    panicIf(when < curTick_,
            "event '", event->name(), "' scheduled in the past (",
            when, " < ", curTick_, ")");

    event->when_ = when;
    insert({when, key_order, key_tie, event});
    maybeAudit();
}

void
EventQueue::scheduleEarliestKeyed(Event *event, Tick when,
                                  Tick key_order, std::uint64_t key_tie)
{
    panicIf(event == nullptr, "scheduling null event");
    if (!event->scheduled()) {
        scheduleKeyed(event, when, key_order, key_tie);
        return;
    }
    if (when >= event->when_)
        return;
    panicIf(when < curTick_,
            "event '", event->name(), "' pulled into the past (",
            when, " < ", curTick_, ")");

    requeue(event, {when, key_order, key_tie, event});
    maybeAudit();
}

void
EventQueue::deschedule(Event *event)
{
    panicIf(event == nullptr, "descheduling null event");
    panicIf(!event->scheduled(),
            "event '", event->name(), "' descheduled while not scheduled");
    const std::size_t slot = event->slot_;
    if (slot & farTag) {
        const std::size_t i = slot & ~farTag;
        panicIf(i >= far_.size() || far_[i].event != event,
                "event '", event->name(), "' queue slot out of sync");
        farRemoveAt(i);
    } else {
        panicIf(slot >= near_.size() || near_[slot].event != event,
                "event '", event->name(), "' queue slot out of sync");
        nearRemoveAt(slot);
        refillIfDrained();
    }
    maybeAudit();
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    panicIf(event == nullptr, "rescheduling null event");
    if (!event->scheduled()) {
        schedule(event, when);
        return;
    }
    panicIf(when < curTick_,
            "event '", event->name(), "' rescheduled into the past (",
            when, " < ", curTick_, ")");

    // A fresh order keeps deschedule+schedule's FIFO position
    // among same-tick events.
    if (parallelKeys_)
        requeue(event, {when, curTick_, nextTie(), event});
    else
        requeue(event, {when, nextOrder_++, 0, event});
    maybeAudit();
}

bool
EventQueue::step(Tick max_tick)
{
    if (near_.empty() || near_.back().when > max_tick)
        return false;

    Event *event = near_.back().event;
    curTick_ = near_.back().when;
    event->slot_ = Event::invalidSlot;
    near_.pop_back();
    refillIfDrained();
    maybeAudit();

    ++numProcessed_;
#if PCIESIM_PROFILING
    if (prof::enabledFlag) [[unlikely]] {
        prof::profileProcess(event);
        return true;
    }
#endif
    event->process();
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    while (step(max_tick)) {
    }
    // Time advances to max_tick if the caller gave a horizon and
    // events remain beyond it; otherwise stay at the last event.
    if (max_tick != maxTick && curTick_ < max_tick)
        curTick_ = max_tick;
    return curTick_;
}

} // namespace pciesim
