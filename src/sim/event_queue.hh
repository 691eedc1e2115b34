/**
 * @file
 * The central event queue driving the simulation.
 */

#ifndef PCIESIM_SIM_EVENT_QUEUE_HH
#define PCIESIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "event.hh"
#include "invariant.hh"
#include "ticks.hh"

namespace pciesim
{

/**
 * A two-tier event queue with deterministic same-tick ordering.
 *
 * Discrete-event runs keep only a few events pending per queue (a
 * dozen on a storage dd, a handful per link domain), and at that
 * size a heap's unpredictable sift branches cost more than the
 * ordering they buy. So the earliest events live in a short sorted
 * array and only the rest in a heap (gem5 keeps a sorted list of
 * same-tick bins for the same reason):
 *
 *  - Near tier: at most nearCap slots sorted latest-first, so the
 *    next event is the last slot and a pop is a pop_back. An insert
 *    is an insertion-sort step from the earliest end, one
 *    predictable exit branch.
 *  - Far tier: an indexed 4-ary min-heap holding everything later.
 *    A 4-ary layout halves the tree depth of a binary heap and
 *    keeps the child scan inside two cache lines of slots.
 *  - Invariant: every near key orders before every far key, and
 *    the near tier is empty only when the queue is. When the near
 *    tier drains it is refilled from the heap in one batch; an
 *    insert into a full near tier evicts its latest slot to the
 *    heap.
 *
 * Both tiers store the (when, order, tie) sort key by value next to
 * the event pointer, so comparisons stay within contiguous slot
 * arrays instead of chasing Event pointers. Each event carries its
 * tier-tagged slot index (Event::slot_), so deschedule and
 * reschedule act on the live entry: no stale entries, no skim pass
 * on pop. A far-tier reschedule whose new key stays in the far tier
 * is one in-place sift.
 *
 * Ordering: earliest tick first; events at the same tick fire in
 * scheduling order (a monotone order counter assigned on every
 * schedule/reschedule), which keeps simulations deterministic.
 * Keys are unique, so the pop order is that of any exact priority
 * queue on them; the tiers change host cost only.
 *
 * Parallel mode (DESIGN.md §10): when a simulation is partitioned
 * into link domains, each domain's queue runs in keyed mode
 * (configureParallelKeys). The same-tick tiebreak then becomes the
 * composite key (scheduling tick, scheduling domain, per-domain
 * serial) instead of a global counter, so the relative order of
 * any two events is a pure function of the simulated history — no
 * matter which worker thread ran which domain, and identical for 1
 * and N threads. Cross-domain arrivals enter through the keyed
 * entry points (scheduleKeyed and friends) carrying the key
 * computed at post time on the sending domain.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p event to fire at absolute tick @p when.
     * It is a panic to schedule in the past or to schedule an
     * already-scheduled event (use reschedule()).
     */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /**
     * Move a scheduled (or unscheduled) event to tick @p when.
     * The event moves within its tier when its new key stays
     * there, and the live-event count is unchanged (no
     * deschedule+schedule double accounting).
     */
    void reschedule(Event *event, Tick when);

    /** Whether any live events remain. */
    bool empty() const { return near_.empty(); }

    /** Number of live (scheduled) events in both tiers. */
    std::size_t size() const { return near_.size() + far_.size(); }

    /**
     * Run until the queue is empty or @p maxTick is passed.
     * @return the tick of the last processed event.
     */
    Tick run(Tick max_tick = maxTick);

    /**
     * Process a single event if one exists at or before @p maxTick.
     * @return true if an event was processed.
     */
    bool step(Tick max_tick = maxTick);

    /** Tick of the next live event, or maxTick when empty. */
    Tick nextTick() const
    {
        return near_.empty() ? maxTick : near_.back().when;
    }

    /** Total number of events processed so far. */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /** @{
     * Parallel-execution hooks (sim/parallel.hh; DESIGN.md §10).
     * A queue in keyed mode derives same-tick tiebreaks from
     * (scheduling tick, domain, per-domain serial) so queue order is
     * independent of worker-thread interleaving.
     */

    /** Switch this queue to keyed mode as domain @p domain_id. */
    void
    configureParallelKeys(unsigned domain_id)
    {
        parallelKeys_ = true;
        domainId_ = domain_id;
        tieBase_ = static_cast<std::uint64_t>(domain_id) << 48;
    }

    unsigned domainId() const { return domainId_; }

    /** The next tiebreak value for a schedule issued by this
     *  domain; the engine consumes these for mailboxed posts so
     *  local and cross-domain schedules share one serial stream. */
    std::uint64_t nextTie() { return tieBase_ | tieSeq_++; }

    /** Schedule with an explicit key computed on the sending
     *  domain (mailbox apply path). */
    void scheduleKeyed(Event *event, Tick when, Tick key_order,
                       std::uint64_t key_tie);

    /**
     * Keyed schedule-if-earlier: schedule when idle, pull in when
     * @p when precedes the pending occurrence, no-op otherwise.
     * Matches the wire's "schedule delivery for the head arrival"
     * idiom under monotone per-wire arrival times.
     */
    void scheduleEarliestKeyed(Event *event, Tick when,
                               Tick key_order, std::uint64_t key_tie);

    /**
     * Run every event strictly inside the window, i.e. with tick
     * <= @p horizon, without advancing curTick_ to the horizon
     * afterwards (the engine owns end-of-run clamping).
     * @return the number of events executed, the engine's
     *         per-domain telemetry unit (DESIGN.md §14) — a pure
     *         function of simulated history, so thread-count
     *         independent.
     */
    std::uint64_t
    runWindow(Tick horizon)
    {
        const std::uint64_t before = numProcessed_;
        while (step(horizon)) {
        }
        return numProcessed_ - before;
    }

    /** Clamp curTick_ forward to @p t (end of a parallel run). */
    void
    advanceTo(Tick t)
    {
        PCIESIM_AUDIT(nextTick() > t,
                      "advanceTo(", t, ") would skip a pending "
                      "event at ", nextTick());
        if (curTick_ < t)
            curTick_ = t;
    }

    /** Per-domain serial for deterministic packet ids. */
    std::uint64_t takeDomainSerial() { return domainSerial_++; }
    /** @} */

    /**
     * Full structural audit of both tiers (audit builds; otherwise
     * a no-op): the near tier is sorted latest-first and no larger
     * than nearCap, it is empty only if the far tier is, its latest
     * key orders before the far tier's earliest, every slot's event
     * carries that slot's tier-tagged index and the slot's tick,
     * and the far tier satisfies d-ary heap order. O(n); called
     * every auditPeriod mutations and directly by tests.
     */
    void auditTiers() const;

  private:
    /** Far-tier heap arity; 4 empirically beats 2 for slot heaps. */
    static constexpr std::size_t arity = 4;

    /** Near-tier capacity, and the batch a drained near tier
     *  refills with. Chosen on replayed op traces of perfbench
     *  dd_storage and mmio_nic (4-12 pending) and of fabric256_d2
     *  and fanout256 at --threads 0 (300+ pending): 16 was no
     *  faster than the plain heap on fanout256, 64 was faster on
     *  all four, and a half-tier refill batch measured the same
     *  as a full one. */
    static constexpr std::size_t nearCap = 64;

    /** Tag bit of a far-tier Event::slot_; near slots are untagged
     *  and Event::invalidSlot is neither. */
    static constexpr std::size_t farTag =
        static_cast<std::size_t>(1) << (8 * sizeof(std::size_t) - 2);

    /** One queue entry: the sort key by value plus the event.
     *  32 bytes, so the 4-ary child scan still spans at most two
     *  cache lines of slots. Legacy mode uses (when, order) with
     *  tie = 0; keyed mode uses (when, scheduling tick, domain |
     *  serial). */
    struct Slot
    {
        Tick when;
        std::uint64_t order;
        std::uint64_t tie;
        Event *event;
    };

    static bool
    before(const Slot &a, const Slot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.order != b.order)
            return a.order < b.order;
        return a.tie < b.tie;
    }

    void
    setNear(std::size_t p, const Slot &s)
    {
        near_[p] = s;
        s.event->slot_ = p;
    }

    void
    setFar(std::size_t i, const Slot &s)
    {
        far_[i] = s;
        s.event->slot_ = farTag | i;
    }

    /** Enter a new slot into whichever tier its key belongs to. */
    void insert(const Slot &s);
    /** Give the scheduled @p event the key of @p s, moving it
     *  within or between tiers. */
    void requeue(Event *event, const Slot &s);
    /** Write @p s into near position @p p, moving it by one
     *  insertion-sort pass in whichever direction its key orders. */
    void placeNear(std::size_t p, const Slot &s);
    /** Detach the event at near position @p p. */
    void nearRemoveAt(std::size_t p);
    /** Refill a drained near tier with the heap's earliest
     *  nearCap slots. */
    void
    refillIfDrained()
    {
        if (near_.empty() && !far_.empty()) [[unlikely]]
            refill();
    }
    void refill();

    void farPush(const Slot &s);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Re-establish heap order for far slot @p i in either
     *  direction. */
    void siftAny(std::size_t i);
    /** Detach the event at far slot @p i, refilling from the
     *  back. */
    void farRemoveAt(std::size_t i);

    /** Audit builds: run auditTiers() every auditPeriod mutations. */
    void
    maybeAudit()
    {
        PCIESIM_AUDIT_ONLY(
            if ((++auditCounter_ % auditPeriod) == 0)
                auditTiers();
        )
    }

    /** Mutations between full audits (audits are O(n)). */
    PCIESIM_AUDIT_ONLY(static constexpr std::uint64_t auditPeriod = 64;)

    /** Near tier, latest first: near_.back() is the next event. */
    std::vector<Slot> near_;
    /** Far tier: 4-ary min-heap of the keys after near_.front(). */
    std::vector<Slot> far_;
    Tick curTick_ = 0;
    std::uint64_t nextOrder_ = 0;
    std::uint64_t numProcessed_ = 0;

    /** Keyed (parallel) tiebreak state; see configureParallelKeys. */
    bool parallelKeys_ = false;
    unsigned domainId_ = 0;
    std::uint64_t tieBase_ = 0;
    std::uint64_t tieSeq_ = 0;
    std::uint64_t domainSerial_ = 0;
    PCIESIM_AUDIT_ONLY(std::uint64_t auditCounter_ = 0;)
};

} // namespace pciesim

#endif // PCIESIM_SIM_EVENT_QUEUE_HH
