#include "parallel.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>
#include <utility>

#include "event.hh"
#include "invariant.hh"
#include "logging.hh"
#include "profiler.hh"
#include "trace.hh"

namespace pciesim
{

namespace par
{

bool engineActive = false;
ParallelEngine *activeEngine = nullptr;

namespace
{
thread_local EventQueue *tlsQueue = nullptr;
} // namespace

EventQueue *
currentQueue()
{
    return tlsQueue;
}

std::uint64_t
domainPacketId()
{
    EventQueue *q = tlsQueue;
    return (static_cast<std::uint64_t>(q->domainId()) << 48) |
           q->takeDomainSerial();
}

} // namespace par

namespace
{

/** First entry of an ascending (src, count) peer list whose src is
 *  not below @p src. */
template <typename Peers>
auto
findPeer(Peers &peers, unsigned src)
{
    return std::lower_bound(
        peers.begin(), peers.end(), src,
        [](const auto &p, unsigned s) { return p.first < s; });
}

} // namespace

ParallelEngine::ParallelEngine(std::vector<EventQueue *> queues,
                               Tick quantum, unsigned threads)
    : queues_(std::move(queues)),
      quantum_(quantum),
      threads_(std::min<unsigned>(std::max(threads, 1u),
                                  queues_.size())),
      outbox_(queues_.size())
{
    panicIf(quantum_ == 0, "parallel engine needs a nonzero quantum");
    panicIf(queues_.size() < 2,
            "parallel engine needs at least two domains");

    if constexpr (prof::compiledIn) {
        const std::size_t n = queues_.size();
        labels_.reserve(n);
        for (std::size_t d = 0; d < n; ++d)
            labels_.push_back("domain" + std::to_string(d));
        domainEvents_.init(n);
        domainActiveWindows_.init(n);
        domainStallWindows_.init(n);
        mailboxSent_.init(n);
        mailboxReceived_.init(n);
        windowsRun_.assign(n, 0);
        execSampled_.assign(n, 0);
        execNs_.assign(n, 0);
        barrierSeen_.assign(threads_, 0);
        barrierSampled_.assign(threads_, 0);
        barrierNs_.assign(threads_, 0);
        settled_.assign(n, 0);
        pairOps_.resize(n);
    }
}

//
// NextTickHeap
//

void
ParallelEngine::NextTickHeap::rebuild(
    const std::vector<EventQueue *> &queues)
{
    const std::size_t n = queues.size();
    tick_.resize(n);
    heap_.resize(n);
    slot_.resize(n);
    for (std::size_t d = 0; d < n; ++d) {
        tick_[d] = queues[d]->nextTick();
        heap_[d] = static_cast<unsigned>(d);
        slot_[d] = d;
    }
    for (std::size_t i = n; i-- > 0;)
        siftDown(i);
}

void
ParallelEngine::NextTickHeap::audit(
    const std::vector<EventQueue *> &queues) const
{
    for (std::size_t d = 0; d < queues.size(); ++d) {
        PCIESIM_AUDIT(tick_[d] == queues[d]->nextTick(), "domain ", d,
                      " keyed at ", tick_[d], " but its next event is at ",
                      queues[d]->nextTick(),
                      " (scheduled from outside its window?)");
    }
}

void
ParallelEngine::NextTickHeap::update(unsigned d, Tick tick)
{
    const Tick old = tick_[d];
    tick_[d] = tick;
    if (tick < old)
        siftUp(slot_[d]);
    else if (tick > old)
        siftDown(slot_[d]);
}

void
ParallelEngine::NextTickHeap::collect(Tick horizon,
                                      std::vector<unsigned> &out) const
{
    // Heap order puts every domain at or before the horizon on a
    // path of such domains from the root, so a breadth-first walk
    // of that prefix finds them all in O(result * arity); @p out
    // doubles as the walk's queue.
    if (heap_.empty() || tick_[heap_[0]] > horizon)
        return;
    std::size_t next = out.size();
    out.push_back(heap_[0]);
    while (next < out.size()) {
        const std::size_t first = slot_[out[next++]] * arity + 1;
        const std::size_t last = std::min(first + arity, heap_.size());
        for (std::size_t c = first; c < last; ++c) {
            if (tick_[heap_[c]] <= horizon)
                out.push_back(heap_[c]);
        }
    }
}

void
ParallelEngine::NextTickHeap::siftUp(std::size_t i)
{
    const unsigned d = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / arity;
        if (tick_[heap_[parent]] <= tick_[d])
            break;
        heap_[i] = heap_[parent];
        slot_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = d;
    slot_[d] = i;
}

void
ParallelEngine::NextTickHeap::siftDown(std::size_t i)
{
    const unsigned d = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t first = i * arity + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + arity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (tick_[heap_[c]] < tick_[heap_[best]])
                best = c;
        }
        if (tick_[heap_[best]] >= tick_[d])
            break;
        heap_[i] = heap_[best];
        slot_[heap_[i]] = i;
        i = best;
    }
    heap_[i] = d;
    slot_[d] = i;
}

//
// Mailboxes
//

std::vector<ParallelEngine::Op> &
ParallelEngine::outbox()
{
    EventQueue *src = par::currentQueue();
    panicIf(src == nullptr,
            "cross-domain post from outside a worker window");
    return outbox_[src->domainId()];
}

void
ParallelEngine::postSchedule(EventQueue &dst, Event &event, Tick when)
{
    EventQueue *src = par::currentQueue();
    outbox().push_back({Op::Kind::schedule, dst.domainId(), &event,
                        when, src->curTick(), src->nextTie(),
                        nullptr});
}

void
ParallelEngine::postScheduleEarliest(EventQueue &dst, Event &event,
                                     Tick when, Tick key_order,
                                     std::uint64_t key_tie)
{
    outbox().push_back({Op::Kind::scheduleEarliest, dst.domainId(),
                        &event, when, key_order, key_tie, nullptr});
}

void
ParallelEngine::postDeschedule(EventQueue &dst, Event &event)
{
    outbox().push_back({Op::Kind::deschedule, dst.domainId(), &event,
                        0, 0, 0, nullptr});
}

void
ParallelEngine::postCall(EventQueue &dst, Tick when,
                         std::function<void()> fn)
{
    EventQueue *src = par::currentQueue();
    outbox().push_back({Op::Kind::call, dst.domainId(), nullptr, when,
                        src->curTick(), src->nextTie(),
                        std::move(fn)});
}

void
ParallelEngine::applyOp(EventQueue &q, Op &op)
{
    if (op.kind == Op::Kind::deschedule) {
        // Tolerant: the event may have fired (or been pulled
        // earlier and fired) since the post.
        if (op.event->scheduled())
            q.deschedule(op.event);
        return;
    }
    // The conservative guarantee: anything posted during the window
    // that just completed lands at or beyond its end (post tick +
    // quantum >= end).
    PCIESIM_AUDIT(op.when >= windowEnd_, "cross-domain event lands at ",
                  op.when, " inside the window ending at ", windowEnd_,
                  " (link latency below the quantum?)");
    switch (op.kind) {
      case Op::Kind::schedule:
        q.scheduleKeyed(op.event, op.when, op.keyOrder, op.keyTie);
        break;
      case Op::Kind::scheduleEarliest:
        q.scheduleEarliestKeyed(op.event, op.when, op.keyOrder,
                                op.keyTie);
        break;
      case Op::Kind::call:
        q.scheduleKeyed(new OneShotEvent(std::move(op.fn)), op.when,
                        op.keyOrder, op.keyTie);
        break;
      default:
        break;
    }
}

void
ParallelEngine::applyMailboxes()
{
    // Only the domains that ran can have posted. An op's index in
    // its source's outbox is its post order, so sorting on (dst,
    // src, index) yields exactly the (dst, src, FIFO) apply order.
    drain_.clear();
    for (unsigned src : ready_) {
        const std::vector<Op> &box = outbox_[src];
        for (std::size_t i = 0; i < box.size(); ++i)
            drain_.push_back({box[i].dst, src, i});
    }
    std::sort(drain_.begin(), drain_.end(),
              [](const Mail &a, const Mail &b) {
                  if (a.dst != b.dst)
                      return a.dst < b.dst;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.index < b.index;
              });

    // The domains that ran have new next ticks.
    for (unsigned d : ready_)
        nextTicks_.update(d, queues_[d]->nextTick());

    for (std::size_t i = 0; i < drain_.size();) {
        const unsigned dst = drain_[i].dst;
        EventQueue &q = *queues_[dst];
        // The windows dst sat out so far saw its pre-mail queue.
        settleStalls(dst, windowSeq_ + 1);
        while (i < drain_.size() && drain_[i].dst == dst) {
            const unsigned src = drain_[i].src;
            std::uint64_t ops = 0;
            for (; i < drain_.size() && drain_[i].dst == dst &&
                   drain_[i].src == src;
                 ++i, ++ops)
                applyOp(q, outbox_[src][drain_[i].index]);
            countMail(src, dst, ops);
        }
        nextTicks_.update(dst, q.nextTick());
    }

    for (unsigned src : ready_)
        outbox_[src].clear();
}

void
ParallelEngine::computeWindow(Tick max_tick)
{
    ready_.clear();
    PCIESIM_AUDIT_ONLY(nextTicks_.audit(queues_);)
    const Tick global_min = nextTicks_.minTick();
    if (global_min == maxTick || global_min > max_tick) {
        stop_.store(true, std::memory_order_relaxed);
        return;
    }
    Tick end = global_min + quantum_;
    if (end < global_min)
        end = maxTick; // saturate on overflow
    if (max_tick != maxTick && end > max_tick + 1)
        end = max_tick + 1;
    windowStart_ = global_min;
    windowEnd_ = end;
    nextTicks_.collect(end - 1, ready_);
    std::sort(ready_.begin(), ready_.end());
}

void
ParallelEngine::enterDomain(unsigned d)
{
    par::tlsQueue = queues_[d];
#if PCIESIM_PROFILING
    prof::enterDomain(d);
#endif
#if PCIESIM_TRACING
    if (tracing_)
        trace::enterDomain(d);
#endif
}

void
ParallelEngine::leaveDomain()
{
    par::tlsQueue = nullptr;
#if PCIESIM_PROFILING
    prof::leaveDomain();
#endif
#if PCIESIM_TRACING
    if (tracing_)
        trace::leaveDomain();
#endif
}

void
ParallelEngine::countMail(unsigned src, unsigned dst,
                          std::uint64_t ops)
{
#if PCIESIM_PROFILING
    // Mailbox telemetry rides the drain the barrier already pays
    // for: one update per (src, dst) box, nothing on the per-post
    // hot path. Deterministic (simulated history only), so safe in
    // 1-vs-N byte-identical dumps.
    mailboxSent_[src] += ops;
    mailboxReceived_[dst] += ops;
    auto &peers = pairOps_[dst];
    auto it = findPeer(peers, src);
    if (it == peers.end() || it->first != src)
        it = peers.insert(it, {src, 0});
    it->second += ops;
#else
    (void)src;
    (void)dst;
    (void)ops;
#endif
}

void
ParallelEngine::settleStalls(unsigned d, std::uint64_t window)
{
#if PCIESIM_PROFILING
    // The queue has not changed since the domain was last touched,
    // so it was non-empty in every window it sat out or in none.
    if (window <= settled_[d])
        return;
    if (!queues_[d]->empty())
        domainStallWindows_[d] += window - settled_[d];
    settled_[d] = window;
#else
    (void)d;
    (void)window;
#endif
}

void
ParallelEngine::runDomainWindow(unsigned d, Tick horizon)
{
    enterDomain(d);
#if PCIESIM_PROFILING
    settleStalls(d, windowSeq_);
    // pciesim-analyze: ignore[wall-clock]: sanctioned 1-in-N host
    // time subsample (DESIGN.md §14); sampled only when the
    // profiler is on (--profile) and times are reported, exactly
    // like prof's estMs — so unprofiled (and --no-timing) dumps
    // never see a wall-derived value.
    using clock = std::chrono::steady_clock;
    const bool timed =
        prof::enabled() && prof::reportTimes() &&
        (windowsRun_[d] & (wallSamplePeriod - 1)) == 0;
    ++windowsRun_[d];
    clock::time_point t0;
    if (timed) [[unlikely]]
        t0 = clock::now();
    const std::uint64_t executed = queues_[d]->runWindow(horizon);
    if (timed) [[unlikely]] {
        execNs_[d] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - t0)
                .count());
        ++execSampled_[d];
    }
    if (executed > 0) {
        domainEvents_[d] += executed;
        ++domainActiveWindows_[d];
#if PCIESIM_TRACING
        // One X span per active window on the domain's track —
        // buffered through the per-domain merge, so the trace stays
        // thread-count independent.
        if (tracing_ && d < trackNames_.size()) {
            TRACE_COMPLETE(trace::Flag::Parallel, windowStart_,
                           windowEnd_ - windowStart_, trackNames_[d],
                           "events=", executed);
        }
#endif
    } else if (!queues_[d]->empty()) {
        // Pending work beyond the horizon and nothing executable:
        // the domain is lookahead-limited this window.
        ++domainStallWindows_[d];
    }
    settled_[d] = windowSeq_ + 1;
#else
    queues_[d]->runWindow(horizon);
#endif
    leaveDomain();
}

void
ParallelEngine::completeWindow(Tick max_tick)
{
#if PCIESIM_TRACING
    if (tracing_) {
        trace::flushParallel();
        // Barrier B/E span on the engine track: one span per
        // window, its end marking the barrier that closed it.
        if (!trackNames_.empty() && windowEnd_ > windowStart_) {
            trace::emitBegin(trace::Flag::Parallel, windowStart_,
                             "system.parallel.engine", "window");
            trace::emitEnd(trace::Flag::Parallel, windowEnd_ - 1,
                           "system.parallel.engine");
        }
    }
#endif
#if PCIESIM_PROFILING
    // pciesim-analyze: ignore[wall-clock]: sanctioned 1-in-N host
    // time subsample of the serial step (DESIGN.md §14), taken
    // only under --profile with times reported.
    using clock = std::chrono::steady_clock;
    const bool timed = prof::enabled() && prof::reportTimes() &&
                       (windowSeq_ & (wallSamplePeriod - 1)) == 0;
    clock::time_point t0;
    if (timed) [[unlikely]]
        t0 = clock::now();
#endif
    applyMailboxes();
    ++windowSeq_;
#if PCIESIM_PROFILING
    ++windows_;
#endif
    computeWindow(max_tick);
#if PCIESIM_PROFILING
    if (timed) [[unlikely]] {
        serialNs_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - t0)
                .count());
        ++serialSampled_;
    }
#endif
}

Tick
ParallelEngine::run(Tick max_tick)
{
    const unsigned nq = queues_.size();

#if PCIESIM_PROFILING
    prof::configureDomains(nq);
#endif
#if PCIESIM_TRACING
    tracing_ = trace::beginParallel(nq);
    if (tracing_ && trace::enabled(trace::Flag::Parallel) &&
        trackNames_.empty()) {
        trackNames_.reserve(nq);
        for (unsigned d = 0; d < nq; ++d) {
            trackNames_.push_back(
                "system.parallel." +
                (d < labels_.size() ? labels_[d]
                                    : "domain" + std::to_string(d)));
        }
    }
#endif
    par::engineActive = true;
    par::activeEngine = this;

    stop_.store(false, std::memory_order_relaxed);
    // Single-threaded phases between runs may have scheduled into
    // any queue directly; re-key every domain once per run.
    nextTicks_.rebuild(queues_);
    computeWindow(max_tick);

    if (threads_ == 1) {
        // Serial path: same window loop, same domain order, same
        // keyed heap — so the output matches any thread count — but
        // with no barrier and no thread spawn.
        while (!stop_.load(std::memory_order_relaxed)) {
            const Tick horizon = windowEnd_ - 1;
            for (unsigned d : ready_)
                runDomainWindow(d, horizon);
            completeWindow(max_tick);
        }
    } else {
        std::barrier barrier(threads_, [this, max_tick]() noexcept {
            completeWindow(max_tick);
        });

        auto work = [&](unsigned w) {
#if PCIESIM_PROFILING
            std::uint64_t seen = 0;
#endif
            while (!stop_.load(std::memory_order_relaxed)) {
                const Tick horizon = windowEnd_ - 1;
                for (unsigned d : ready_) {
                    if (d % threads_ == w)
                        runDomainWindow(d, horizon);
                }
#if PCIESIM_PROFILING
                // pciesim-analyze: ignore[wall-clock]: sanctioned
                // 1-in-N barrier-wait subsample (DESIGN.md §14),
                // taken only under --profile with times reported.
                const bool timed =
                    prof::enabled() && prof::reportTimes() &&
                    (seen++ & (wallSamplePeriod - 1)) == 0;
                if (timed) [[unlikely]] {
                    // pciesim-analyze: ignore[wall-clock]: same
                    // sanctioned barrier-wait subsample gate as
                    // above.
                    using clock = std::chrono::steady_clock;
                    const clock::time_point t0 = clock::now();
                    barrier.arrive_and_wait();
                    barrierNs_[w] += static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(clock::now() -
                                                      t0)
                            .count());
                    ++barrierSampled_[w];
                } else {
                    barrier.arrive_and_wait();
                }
#else
                barrier.arrive_and_wait();
#endif
            }
#if PCIESIM_PROFILING
            barrierSeen_[w] += seen;
#endif
        };

        std::vector<std::thread> workers;
        workers.reserve(threads_ - 1);
        for (unsigned w = 1; w < threads_; ++w)
            workers.emplace_back(work, w);
        work(0);
        for (std::thread &t : workers)
            t.join();
    }

    par::activeEngine = nullptr;
    par::engineActive = false;
#if PCIESIM_TRACING
    if (tracing_)
        trace::endParallel();
#endif
    for (unsigned d = 0; d < nq; ++d)
        settleStalls(d, windowSeq_);

    Tick result = 0;
    for (EventQueue *q : queues_)
        result = std::max(result, q->curTick());
    if (max_tick != maxTick)
        result = max_tick; // mirror EventQueue::run()'s horizon rule
    // Clamp every domain to the common end time so single-threaded
    // phases between runs see one consistent clock. Run-to-drain
    // only stops with every queue empty and a bounded run only with
    // every next event past the horizon, so nothing is skipped.
    for (EventQueue *q : queues_)
        q->advanceTo(result);
    return result;
}

//
// Telemetry (DESIGN.md §14)
//

double
ParallelEngine::estExecNs() const
{
#if PCIESIM_PROFILING
    double total = 0.0;
    for (std::size_t d = 0; d < execNs_.size(); ++d) {
        if (execSampled_[d] == 0)
            continue;
        total += static_cast<double>(execNs_[d]) *
                 static_cast<double>(windowsRun_[d]) /
                 static_cast<double>(execSampled_[d]);
    }
    return total;
#else
    return 0.0;
#endif
}

double
ParallelEngine::estSyncNs() const
{
#if PCIESIM_PROFILING
    double total = 0.0;
    for (std::size_t w = 0; w < barrierNs_.size(); ++w) {
        if (barrierSampled_[w] == 0)
            continue;
        total += static_cast<double>(barrierNs_[w]) *
                 static_cast<double>(barrierSeen_[w]) /
                 static_cast<double>(barrierSampled_[w]);
    }
    return total;
#else
    return 0.0;
#endif
}

void
ParallelEngine::registerStats(stats::Registry &reg,
                              const std::vector<std::string> &labels)
{
#if PCIESIM_PROFILING
    using stats::Unit;
    const std::size_t n = queues_.size();
    for (std::size_t d = 0; d < n && d < labels.size(); ++d) {
        if (labels[d].empty())
            continue;
        labels_[d] = labels[d];
        domainEvents_.subname(d, labels[d]);
        domainActiveWindows_.subname(d, labels[d]);
        domainStallWindows_.subname(d, labels[d]);
        mailboxSent_.subname(d, labels[d]);
        mailboxReceived_.subname(d, labels[d]);
    }

    reg.add("system.parallel", "windows", &windows_,
            "quantum windows completed by the engine", Unit::Count);
    reg.add("system.parallel", "domainEvents", &domainEvents_,
            "events executed per domain inside engine windows",
            Unit::Count);
    reg.add("system.parallel", "domainActiveWindows",
            &domainActiveWindows_,
            "windows in which the domain executed >= 1 event",
            Unit::Count);
    reg.add("system.parallel", "domainStallWindows",
            &domainStallWindows_,
            "lookahead-limited windows: pending work beyond the "
            "horizon, nothing executable",
            Unit::Count);
    reg.add("system.parallel", "mailboxSent", &mailboxSent_,
            "cross-domain mailbox operations posted by each domain",
            Unit::Count);
    reg.add("system.parallel", "mailboxReceived", &mailboxReceived_,
            "cross-domain mailbox operations delivered to each "
            "domain",
            Unit::Count);

    domainsStat_ = [this] {
        return static_cast<double>(queues_.size());
    };
    reg.add("system.parallel", "domains", &domainsStat_,
            "link domains driven by the engine", Unit::Count);
    quantumStat_ = [this] {
        return static_cast<double>(quantum_);
    };
    reg.add("system.parallel", "quantumTicks", &quantumStat_,
            "synchronization quantum (minimum cross-domain "
            "lookahead)",
            Unit::Tick);
    loadImbalanceStat_ = [this] { return loadImbalance(); };
    reg.add("system.parallel", "loadImbalance", &loadImbalanceStat_,
            "max/mean events per domain (1.0 == perfectly "
            "balanced)",
            Unit::Ratio);
    mailboxIntensityStat_ = [this] {
        const std::uint64_t events = domainEvents_.total();
        return events == 0
                   ? 0.0
                   : static_cast<double>(mailboxSent_.total()) /
                         static_cast<double>(events);
    };
    reg.add("system.parallel", "mailboxIntensity",
            &mailboxIntensityStat_,
            "cross-domain mailbox operations per executed event",
            Unit::Ratio);

    // Wall-clock-derived formulas: read 0 whenever time reporting
    // is suppressed (--no-timing), which keeps 1-vs-N stats dumps
    // byte-identical — the same contract as the profiler's estMs.
    syncOverheadStat_ = [this] { return syncOverheadFraction(); };
    reg.add("system.parallel", "syncOverheadFraction",
            &syncOverheadStat_,
            "estimated barrier-wait wall time over total engine "
            "wall time; reads 0 under --no-timing",
            Unit::Ratio);
    execMsEstStat_ = [this] {
        return prof::enabled() && prof::reportTimes()
                   ? estExecNs() / 1e6
                   : 0.0;
    };
    reg.add("system.parallel", "execMsEst", &execMsEstStat_,
            "estimated wall ms executing domain windows (0 under "
            "--no-timing)");
    syncWaitMsEstStat_ = [this] {
        return prof::enabled() && prof::reportTimes()
                   ? estSyncNs() / 1e6
                   : 0.0;
    };
    reg.add("system.parallel", "syncWaitMsEst", &syncWaitMsEstStat_,
            "estimated wall ms waiting at window barriers (0 under "
            "--no-timing)");
    serialMsEstStat_ = [this] { return serialMsEst(); };
    reg.add("system.parallel", "serialMsEst", &serialMsEstStat_,
            "estimated wall ms in the barrier's serial completion "
            "step: mailbox drain plus next-window computation (0 "
            "under --no-timing)");
#else
    (void)reg;
    (void)labels;
#endif
}

std::uint64_t
ParallelEngine::windowsSynced() const
{
    return windows_.value();
}

std::uint64_t
ParallelEngine::domainEvents(unsigned d) const
{
    return d < domainEvents_.size() ? domainEvents_[d].value() : 0;
}

std::uint64_t
ParallelEngine::stallWindows(unsigned d) const
{
    return d < domainStallWindows_.size()
               ? domainStallWindows_[d].value()
               : 0;
}

std::uint64_t
ParallelEngine::mailboxSent(unsigned d) const
{
    return d < mailboxSent_.size() ? mailboxSent_[d].value() : 0;
}

std::uint64_t
ParallelEngine::mailboxReceived(unsigned d) const
{
    return d < mailboxReceived_.size() ? mailboxReceived_[d].value()
                                       : 0;
}

std::uint64_t
ParallelEngine::mailboxPair(unsigned src, unsigned dst) const
{
    if (dst >= pairOps_.size())
        return 0;
    const auto &peers = pairOps_[dst];
    auto it = findPeer(peers, src);
    return it != peers.end() && it->first == src ? it->second : 0;
}

std::pair<unsigned, std::uint64_t>
ParallelEngine::hottestPeerOf(unsigned d) const
{
    unsigned best = d;
    std::uint64_t best_ops = 0;
    if (d < pairOps_.size()) {
        // Ascending src with a strict compare: ties go to the
        // lowest-numbered peer.
        for (const auto &[src, ops] : pairOps_[d]) {
            if (ops > best_ops) {
                best = src;
                best_ops = ops;
            }
        }
    }
    return {best, best_ops};
}

double
ParallelEngine::loadImbalance() const
{
    if (domainEvents_.size() == 0)
        return 0.0;
    std::uint64_t max = 0;
    const std::uint64_t total = domainEvents_.total();
    for (std::size_t d = 0; d < domainEvents_.size(); ++d)
        max = std::max(max, domainEvents_[d].value());
    if (total == 0)
        return 0.0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(domainEvents_.size());
    return static_cast<double>(max) / mean;
}

double
ParallelEngine::syncOverheadFraction() const
{
#if PCIESIM_PROFILING
    if (!prof::enabled() || !prof::reportTimes())
        return 0.0;
    const double sync = estSyncNs();
    const double exec = estExecNs();
    return sync + exec > 0.0 ? sync / (sync + exec) : 0.0;
#else
    return 0.0;
#endif
}

double
ParallelEngine::serialMsEst() const
{
#if PCIESIM_PROFILING
    if (!prof::enabled() || !prof::reportTimes() || serialSampled_ == 0)
        return 0.0;
    return static_cast<double>(serialNs_) / 1e6 *
           static_cast<double>(windowSeq_) /
           static_cast<double>(serialSampled_);
#else
    return 0.0;
#endif
}

const std::string &
ParallelEngine::domainLabel(unsigned d) const
{
    static const std::string empty;
    return d < labels_.size() ? labels_[d] : empty;
}

} // namespace pciesim
