/**
 * @file
 * Unit tests for the quantum-synchronized parallel engine
 * (sim/parallel.hh, DESIGN.md Sec. 10), driven directly through a
 * partitioned Simulation rather than a full topology: the edge
 * cases here — an arrival landing exactly on a window boundary, a
 * mailed event descheduled before or after its barrier applies,
 * two domains posting to each other inside one quantum — are the
 * ones a topology only hits under rare timing alignments — plus
 * the mailbox apply order and the stall accounting of domains the
 * engine skips.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/invariant.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"

using namespace pciesim;

namespace
{

constexpr Tick quantum = 100;

/** A Simulation partitioned into two domains with the engine
 *  attached; nothing scheduled yet. */
struct TwoDomainSim
{
    explicit TwoDomainSim(unsigned threads)
    {
        unsigned d1 = sim.addDomain();
        EXPECT_EQ(d1, 1u);
        sim.setupParallel(threads, quantum);
    }

    Simulation sim;
};

} // namespace

TEST(ParallelEngineTest, CrossDomainPostOnExactQuantumBoundary)
{
    // The conservative contract is when >= window end; an arrival
    // exactly AT the end of the posting window (post tick +
    // quantum) is the legal minimum and must fire at its tick, not
    // be rejected or deferred.
    TwoDomainSim t(2);
    Tick fired_at = 0;
    EventFunctionWrapper poster(
        [&] {
            t.sim.callAt(1, t.sim.curTick() + quantum,
                         [&] { fired_at = t.sim.curTick(); });
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 10);

    t.sim.run();
    EXPECT_EQ(fired_at, 10 + quantum);
}

TEST(ParallelEngineTest, MailedEventDeschedulesBeforeFiring)
{
    // Schedule-then-deschedule of the same remote event inside one
    // window: both operations sit in the same mailbox and apply in
    // FIFO order at the barrier, so the event must never fire.
    TwoDomainSim t(2);
    int fires = 0;
    EventFunctionWrapper victim([&] { ++fires; }, "test.victim");
    EventFunctionWrapper poster(
        [&] {
            ParallelEngine &eng = *par::activeEngine;
            EventQueue &remote = t.sim.domainQueue(1);
            eng.postSchedule(remote, victim,
                             t.sim.curTick() + 2 * quantum);
            eng.postDeschedule(remote, victim);
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 0);

    t.sim.run();
    EXPECT_EQ(fires, 0);
    EXPECT_FALSE(victim.scheduled());
}

TEST(ParallelEngineTest, MailedEventDeschedulesFromLaterWindow)
{
    // The deschedule arrives one window after the schedule: by then
    // the event sits in the remote heap but has not fired (it was
    // posted two quanta out), so the cancel must still win.
    TwoDomainSim t(2);
    int fires = 0;
    EventFunctionWrapper victim([&] { ++fires; }, "test.victim");
    EventFunctionWrapper cancel(
        [&] {
            par::activeEngine->postDeschedule(t.sim.domainQueue(1),
                                              victim);
        },
        "test.cancel");
    EventFunctionWrapper poster(
        [&] {
            par::activeEngine->postSchedule(
                t.sim.domainQueue(1), victim,
                t.sim.curTick() + 3 * quantum);
            // Fire the canceller in the next window.
            t.sim.domainQueue(0).schedule(
                &cancel, t.sim.curTick() + quantum);
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 0);

    t.sim.run();
    EXPECT_EQ(fires, 0);
    EXPECT_FALSE(victim.scheduled());
}

TEST(ParallelEngineTest, DescheduleAfterRemoteEventFiredIsTolerated)
{
    // A cancel can race the event in simulated time: posted in the
    // window after the event already fired. applyMailboxes() must
    // treat the no-longer-scheduled event as a no-op.
    TwoDomainSim t(2);
    int fires = 0;
    EventFunctionWrapper victim([&] { ++fires; }, "test.victim");
    EventFunctionWrapper cancel(
        [&] {
            par::activeEngine->postDeschedule(t.sim.domainQueue(1),
                                              victim);
        },
        "test.cancel");
    EventFunctionWrapper poster(
        [&] {
            par::activeEngine->postSchedule(
                t.sim.domainQueue(1), victim,
                t.sim.curTick() + quantum);
            // By 3 quanta the victim has long fired.
            t.sim.domainQueue(0).schedule(
                &cancel, t.sim.curTick() + 3 * quantum);
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 0);

    t.sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(victim.scheduled());
}

TEST(ParallelEngineTest, MutualPostsInSameQuantum)
{
    // Both domains post to each other inside the same window, for
    // several rounds: a ping-pong that keeps both heaps non-empty
    // and both mailbox directions full every barrier. Each side
    // must see every message, exactly one quantum apart.
    constexpr int rounds = 16;
    TwoDomainSim t(2);
    std::vector<Tick> fired0, fired1;

    // Each hop re-posts to the other domain until its round count
    // runs out. Declared as std::functions so the lambdas can
    // reference each other.
    std::function<void(int)> hop0, hop1;
    hop0 = [&](int left) {
        fired0.push_back(t.sim.curTick());
        if (left > 0) {
            t.sim.callAt(1, t.sim.curTick() + quantum,
                         [&, left] { hop1(left - 1); });
        }
    };
    hop1 = [&](int left) {
        fired1.push_back(t.sim.curTick());
        if (left > 0) {
            t.sim.callAt(0, t.sim.curTick() + quantum,
                         [&, left] { hop0(left - 1); });
        }
    };

    // Symmetric kick-off: both domains start a chain at tick 0, so
    // in every window each domain both executes and receives.
    EventFunctionWrapper start0([&] { hop0(rounds); },
                                "test.start0");
    EventFunctionWrapper start1([&] { hop1(rounds); },
                                "test.start1");
    t.sim.domainQueue(0).schedule(&start0, 0);
    t.sim.domainQueue(1).schedule(&start1, 0);

    t.sim.run();

    // Chain A fires on domain 0 at even hops, chain B at odd hops
    // (and vice versa on domain 1), so each domain fires at every
    // multiple of the quantum up to the round count.
    ASSERT_EQ(fired0.size(), static_cast<std::size_t>(rounds + 1));
    ASSERT_EQ(fired1.size(), static_cast<std::size_t>(rounds + 1));
    for (int i = 0; i <= rounds; ++i) {
        EXPECT_EQ(fired0[i], static_cast<Tick>(i) * quantum);
        EXPECT_EQ(fired1[i], static_cast<Tick>(i) * quantum);
    }
}

TEST(ParallelEngineTest, ThreadCountDoesNotChangePingPong)
{
    // The same mutual-post workload must produce identical fire
    // ticks for one worker and four (domain count clamps four down
    // to two) — the in-process slice of the determinism contract.
    auto run = [](unsigned threads) {
        TwoDomainSim t(threads);
        std::vector<Tick> fired;
        std::function<void(int)> hop;
        hop = [&](int left) {
            fired.push_back(t.sim.curTick());
            if (left > 0) {
                unsigned dst = left % 2;
                t.sim.callAt(dst, t.sim.curTick() + 2 * quantum,
                             [&, left] { hop(left - 1); });
            }
        };
        EventFunctionWrapper start([&] { hop(12); }, "test.start");
        t.sim.domainQueue(0).schedule(&start, 7);
        t.sim.run();
        return fired;
    };
    EXPECT_EQ(run(1), run(4));
}

TEST(ParallelEngineTest, MailAppliesInDestSourceFifoOrder)
{
    // Three sources post to one destination in the same window, and
    // every operation targets the same event, so only the (dst,
    // src, FIFO) apply order yields "fires once, at 700":
    //   src 1: earliest(500), deschedule   -> idle
    //   src 2: deschedule, earliest(700)   -> armed at 700
    //   src 3: earliest(900)               -> no-op, 700 is earlier
    // Sources applied high-to-low would leave it descheduled; a
    // box applied LIFO would fire it at 900.
    auto run = [](unsigned threads) {
        Simulation sim;
        for (int i = 0; i < 3; ++i)
            sim.addDomain();
        sim.setupParallel(threads, quantum);

        std::vector<Tick> fired;
        EventFunctionWrapper victim(
            [&] { fired.push_back(sim.curTick()); }, "test.victim");
        EventQueue &dst = sim.domainQueue(0);
        auto earliest = [&](Tick when) {
            EventQueue &src = *par::currentQueue();
            par::activeEngine->postScheduleEarliest(
                dst, victim, when, src.curTick(), src.nextTie());
        };
        auto cancel = [&] {
            par::activeEngine->postDeschedule(dst, victim);
        };
        EventFunctionWrapper post1(
            [&] {
                earliest(500);
                cancel();
            },
            "test.post1");
        EventFunctionWrapper post2(
            [&] {
                cancel();
                earliest(700);
            },
            "test.post2");
        EventFunctionWrapper post3([&] { earliest(900); },
                                   "test.post3");
        sim.domainQueue(1).schedule(&post1, 0);
        sim.domainQueue(2).schedule(&post2, 0);
        sim.domainQueue(3).schedule(&post3, 0);

        sim.run();
        EXPECT_FALSE(victim.scheduled());
        if (!prof::compiledIn)
            return fired;

        // The peer counts see the same five operations; ties for
        // the hottest peer go to the lowest source.
        ParallelEngine &eng = *sim.engine();
        EXPECT_EQ(eng.mailboxReceived(0), 5u);
        EXPECT_EQ(eng.mailboxPair(1, 0), 2u);
        EXPECT_EQ(eng.mailboxPair(2, 0), 2u);
        EXPECT_EQ(eng.mailboxPair(3, 0), 1u);
        EXPECT_EQ(eng.mailboxPair(0, 1), 0u);
        EXPECT_EQ(eng.hottestPeerOf(0),
                  (std::pair<unsigned, std::uint64_t>{1, 2}));
        return fired;
    };
    const std::vector<Tick> expected{700};
    EXPECT_EQ(run(1), expected);
    EXPECT_EQ(run(4), expected);
}

TEST(ParallelEngineTest, SkippedWindowsCountAsStalls)
{
    // Domain 0 works in each of 11 windows ([100w, 100w + 100)).
    // Domain 1 holds one event at 950 and, from window 3, a mailed
    // one at 450: it stalls in windows 0-3 and 5-8. Domain 2 is
    // empty until window 3 mails it work at 600: idle-empty windows
    // are not stalls, so it stalls only in windows 4 and 5. Idle
    // domains are never visited, so every one of these stalls is
    // counted for a window the domain sat out.
    for (unsigned threads : {1u, 3u}) {
        Simulation sim;
        sim.addDomain();
        sim.addDomain();
        sim.setupParallel(threads, quantum);

        int busy = 0, far = 0, mailed = 0;
        std::function<void(int)> churn = [&](int left) {
            ++busy;
            if (left == 7) {
                sim.callAt(1, 450, [&] { ++mailed; });
                sim.callAt(2, 600, [&] { ++mailed; });
            }
            if (left > 0) {
                sim.callAt(0, sim.curTick() + quantum,
                           [&churn, left] { churn(left - 1); });
            }
        };
        EventFunctionWrapper start([&] { churn(10); }, "test.start");
        EventFunctionWrapper lone([&] { ++far; }, "test.lone");
        sim.domainQueue(0).schedule(&start, 0);
        sim.domainQueue(1).schedule(&lone, 950);

        sim.run();
        EXPECT_EQ(busy, 11);
        EXPECT_EQ(far, 1);
        EXPECT_EQ(mailed, 2);
        if (!prof::compiledIn)
            continue; // the flight recorder is compiled out

        ParallelEngine &eng = *sim.engine();
        EXPECT_EQ(eng.windowsSynced(), 11u) << threads;
        EXPECT_EQ(eng.stallWindows(0), 0u) << threads;
        EXPECT_EQ(eng.stallWindows(1), 8u) << threads;
        EXPECT_EQ(eng.stallWindows(2), 2u) << threads;
        EXPECT_EQ(eng.domainEvents(1), 2u) << threads;
    }
}

TEST(ParallelEngineDeathTest, SubQuantumCrossDomainPostPanics)
{
    // A cross-domain arrival inside the current window means the
    // link's flight latency was below the quantum — the
    // conservative guarantee is broken and audit builds must say
    // so at the first occurrence, not corrupt causality silently.
    if (!auditEnabled)
        GTEST_SKIP() << "audit disabled in this build";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    EXPECT_DEATH(
        {
            TwoDomainSim t(1);
            EventFunctionWrapper poster(
                [&] {
                    t.sim.callAt(1, t.sim.curTick() + quantum / 2,
                                 [] {});
                },
                "test.poster");
            t.sim.domainQueue(0).schedule(&poster, 0);
            t.sim.run();
        },
        "inside the window");
}
