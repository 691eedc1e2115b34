/**
 * @file
 * Conservative quantum-synchronized parallel engine (DESIGN.md §10).
 *
 * The engine drives one EventQueue per link domain in lockstep
 * windows: every window spans [global minimum next tick, minimum +
 * quantum), where the quantum is the smallest link flight latency
 * crossing any domain boundary. Because a packet posted at tick t
 * arrives no earlier than t + quantum >= window end, cross-domain
 * events always land in a later window — domains never need to see
 * each other's state mid-window, so each one runs lock-free on its
 * own worker thread.
 *
 * A window costs O(active domains + mailbox ops · log), not
 * O(domains): an indexed min-heap holds every domain's next tick,
 * so the window start is the heap top and the run set is the heap
 * prefix at or before the horizon. Idle domains are never visited;
 * their stall windows are counted lazily the next time they are
 * touched.
 *
 * Cross-domain scheduling goes through per-source outboxes: the
 * source worker appends operations, tagged with their destination,
 * during its window (it is the only writer of that vector) and a
 * single thread drains the outboxes of the domains that ran inside
 * the barrier's completion step, in (dest, source, FIFO) order,
 * before the next window is computed. The composite ordering key
 * for each operation is computed at post time on the sending
 * domain, so heap order on the destination is a pure function of
 * simulated history — identical for any thread count (the
 * determinism contract enforced by the tier-2 parallel gate).
 */

#ifndef PCIESIM_SIM_PARALLEL_HH
#define PCIESIM_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "event_queue.hh"
#include "parallel_mode.hh"
#include "stats.hh"
#include "ticks.hh"

namespace pciesim
{

/**
 * Thread pool + barrier driving a set of domain event queues under
 * conservative quantum synchronization. Constructed once per
 * Simulation (setupParallel); run() may be invoked repeatedly —
 * workers are spawned and joined per call, so single-threaded
 * phases (construction, enumeration, MMIO programming) between runs
 * need no synchronization at all.
 */
class ParallelEngine
{
  public:
    /**
     * @param queues One entry per domain; index == domain id.
     * @param quantum Minimum cross-domain link flight latency;
     *        must be > 0.
     * @param threads Requested worker count; clamped to the number
     *        of domains. Domain d runs on worker d % threads.
     */
    ParallelEngine(std::vector<EventQueue *> queues, Tick quantum,
                   unsigned threads);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * Run windows until every queue drains or the global minimum
     * next tick passes @p max_tick. With an explicit horizon all
     * queues are clamped forward to it afterwards, mirroring the
     * single-queue EventQueue::run() contract.
     * @return the final simulated tick (max over domains).
     */
    Tick run(Tick max_tick = maxTick);

    Tick quantum() const { return quantum_; }
    unsigned threads() const { return threads_; }
    unsigned numDomains() const
    {
        return static_cast<unsigned>(queues_.size());
    }

    /** @{
     * Per-domain flight recorder (DESIGN.md §14). Everything here
     * is a pure function of simulated history — events executed,
     * window classification, mailbox traffic — so the counters are
     * byte-identical for any thread count. Wall-clock quantities
     * (window execution time, barrier wait, the barrier's serial
     * completion step) are estimated from a 1-in-N steady_clock
     * subsample taken only while the profiler is on (--profile)
     * with times reported, and exposed only through dump-time
     * Formulas that read 0 otherwise — the same contract as the
     * profiler's estMs, so unprofiled and --no-timing dumps never
     * contain a wall-derived value. The whole block compiles out
     * under PCIESIM_PROFILING=0.
     */

    /**
     * Register the telemetry block with @p reg under
     * "system.parallel.*". @p labels names each domain (index ==
     * domain id; short names become Vector subnames and Perfetto
     * track names). A no-op in PCIESIM_PROFILING=0 builds.
     */
    void registerStats(stats::Registry &reg,
                       const std::vector<std::string> &labels);

    /** Quantum windows completed (== barrier passes). */
    std::uint64_t windowsSynced() const;
    /** Events domain @p d executed inside engine windows. */
    std::uint64_t domainEvents(unsigned d) const;
    /** Windows where @p d had pending work beyond the horizon but
     *  executed nothing (lookahead-limited). */
    std::uint64_t stallWindows(unsigned d) const;
    /** Cross-domain mailbox operations sent by / delivered to
     *  domain @p d. */
    std::uint64_t mailboxSent(unsigned d) const;
    std::uint64_t mailboxReceived(unsigned d) const;
    /** Mailbox operations from @p src to @p dst (sparse: only
     *  pairs that ever exchanged mail are stored). */
    std::uint64_t mailboxPair(unsigned src, unsigned dst) const;
    /** Busiest incoming peer of @p d: (src domain, op count);
     *  (d, 0) when nothing arrived. */
    std::pair<unsigned, std::uint64_t> hottestPeerOf(unsigned d) const;
    /** Max/mean events per domain; 0 with no events. */
    double loadImbalance() const;
    /** Estimated barrier+idle wall time over total wall time; 0
     *  unless the profiler is on with times reported (--profile
     *  without --no-timing). */
    double syncOverheadFraction() const;
    /** Estimated wall ms in the barrier's serial completion step
     *  (mailbox drain plus next-window computation); 0 unless the
     *  profiler is on with times reported. */
    double serialMsEst() const;
    /** The label registered for domain @p d ("domain<d>" default). */
    const std::string &domainLabel(unsigned d) const;
    /** @} */

    /** @{
     * Cross-domain posts. Callable only from a worker inside its
     * window (the source domain is the calling thread's current
     * queue); applied at the next barrier. The ordering key is
     * captured here, on the sending domain.
     */
    void postSchedule(EventQueue &dst, Event &event, Tick when);
    /** Schedule-if-earlier with a caller-computed key: the sink may
     *  also arm @p event for the same occurrence (a wire rearming
     *  after a delivery), so the key must be fixed once, at send
     *  time, and shared by both paths. */
    void postScheduleEarliest(EventQueue &dst, Event &event,
                              Tick when, Tick key_order,
                              std::uint64_t key_tie);
    void postDeschedule(EventQueue &dst, Event &event);
    void postCall(EventQueue &dst, Tick when,
                  std::function<void()> fn);
    /** @} */

  private:
    /** One mailboxed cross-domain operation. */
    struct Op
    {
        enum class Kind : std::uint8_t
        {
            schedule,
            scheduleEarliest,
            deschedule,
            call,
        };

        Kind kind;
        unsigned dst;
        Event *event;
        Tick when;
        Tick keyOrder;
        std::uint64_t keyTie;
        std::function<void()> fn;
    };

    /** One drained operation: outbox_[src][index], bound for dst. */
    struct Mail
    {
        unsigned dst;
        unsigned src;
        std::size_t index;
    };

    /**
     * Indexed 4-ary min-heap of domain ids keyed on each domain's
     * next tick (the layout of EventQueue's heap). Every domain
     * holds one slot for the engine's lifetime; an empty domain
     * sits at maxTick.
     */
    class NextTickHeap
    {
      public:
        /** Rebuild from scratch over @p queues (O(n)). */
        void rebuild(const std::vector<EventQueue *> &queues);
        /** Re-key domain @p d to @p tick. */
        void update(unsigned d, Tick tick);
        Tick minTick() const { return tick_[heap_[0]]; }
        /** Append every domain whose next tick is <= @p horizon
         *  (heap order, unsorted) to @p out. */
        void collect(Tick horizon, std::vector<unsigned> &out) const;
        /** Audit builds: every key matches its queue's next tick. */
        void audit(const std::vector<EventQueue *> &queues) const;

      private:
        static constexpr std::size_t arity = 4;

        void siftUp(std::size_t i);
        void siftDown(std::size_t i);

        std::vector<Tick> tick_;        //!< next tick per domain
        std::vector<unsigned> heap_;    //!< domain ids, heap order
        std::vector<std::size_t> slot_; //!< domain -> heap slot
    };

    /** The calling worker's outbox (panics outside a window). */
    std::vector<Op> &outbox();
    void applyMailboxes();
    void applyOp(EventQueue &q, Op &op);
    void computeWindow(Tick max_tick);
    void enterDomain(unsigned d);
    void leaveDomain();

    /** One window of domain @p d: enter, run, classify, leave. */
    void runDomainWindow(unsigned d, Tick horizon);
    /** The barrier's serial step: drain mail, pick the next window. */
    void completeWindow(Tick max_tick);

    /** Telemetry: count the windows before @p window that domain
     *  @p d sat out unvisited as stalls if it held work. */
    void settleStalls(unsigned d, std::uint64_t window);
    /** Telemetry: @p ops operations drained from src to dst. */
    void countMail(unsigned src, unsigned dst, std::uint64_t ops);

    /** Estimated wall ns executing windows / waiting at barriers
     *  (1-in-N subsample scaled to all windows; 0 when times are
     *  suppressed or nothing was sampled). */
    double estExecNs() const;
    double estSyncNs() const;

    std::vector<EventQueue *> queues_;
    const Tick quantum_;
    const unsigned threads_;

    /** outbox_[src]: operations domain src posted this window, in
     *  post order. src's worker is the only writer during a window,
     *  the barrier completion the only reader — the barrier itself
     *  provides the ordering. */
    std::vector<std::vector<Op>> outbox_;
    /** Drain scratch, reused across windows. */
    std::vector<Mail> drain_;

    NextTickHeap nextTicks_;
    /** Domains with work at or before the current horizon, in
     *  ascending id order: the run set of the current window.
     *  Written by the completion step, read by the workers. */
    std::vector<unsigned> ready_;

    Tick windowStart_ = 0;
    Tick windowEnd_ = 0;
    std::atomic<bool> stop_{false};
    bool tracing_ = false;

    /** @{ Telemetry state (DESIGN.md §14). The registered stats
     *  are written only from sanctioned single-writer contexts:
     *  per-domain slots from the worker owning that domain's
     *  window, totals from the barrier completion step. */
    /** Time 1 in this many windows (and barrier waits). */
    static constexpr std::uint64_t wallSamplePeriod = 16;

    std::vector<std::string> labels_;
    stats::Vector domainEvents_;
    stats::Vector domainActiveWindows_;
    stats::Vector domainStallWindows_;
    stats::Vector mailboxSent_;
    stats::Vector mailboxReceived_;
    stats::Counter windows_;
    stats::Formula domainsStat_;
    stats::Formula quantumStat_;
    stats::Formula loadImbalanceStat_;
    stats::Formula mailboxIntensityStat_;
    stats::Formula syncOverheadStat_;
    stats::Formula execMsEstStat_;
    stats::Formula syncWaitMsEstStat_;
    stats::Formula serialMsEstStat_;

    /** Windows completed over the engine's lifetime (unlike the
     *  windows_ stat, never reset) and, per domain, the first
     *  window whose stall classification is still unsettled. */
    std::uint64_t windowSeq_ = 0;
    std::vector<std::uint64_t> settled_;

    /** Raw accumulators behind the wall-time estimates. Windows
     *  run / sampled / sampled-ns per domain; barrier waits per
     *  worker (a worker's wait is sync overhead, not any single
     *  domain's); the serial completion step, sampled on
     *  windowSeq_. Cumulative across stats epochs by design. */
    std::vector<std::uint64_t> windowsRun_;
    std::vector<std::uint64_t> execSampled_;
    std::vector<std::uint64_t> execNs_;
    std::vector<std::uint64_t> barrierSeen_;
    std::vector<std::uint64_t> barrierSampled_;
    std::vector<std::uint64_t> barrierNs_;
    std::uint64_t serialSampled_ = 0;
    std::uint64_t serialNs_ = 0;

    /** pairOps_[dst]: (src, mailbox op count) for every source that
     *  ever mailed dst, ascending src. Updated only in
     *  applyMailboxes (single-threaded). */
    std::vector<std::vector<std::pair<unsigned, std::uint64_t>>>
        pairOps_;

    /** Perfetto track names, built lazily when tracing engages. */
    std::vector<std::string> trackNames_;
    /** @} */
};

namespace par
{

/** The engine whose run() is currently executing, else null.
 *  Same write discipline as engineActive. */
extern ParallelEngine *activeEngine;

} // namespace par

} // namespace pciesim

#endif // PCIESIM_SIM_PARALLEL_HH
