/**
 * @file
 * Unit tests for the parallel engine's flight recorder (ISSUE 10,
 * DESIGN.md §14), driven through a two-domain Simulation: the
 * deterministic counters (windows, per-domain events, stall
 * classification, mailbox matrix) must record real traffic, agree
 * with the simulated history, survive a stats dump, zero on a
 * registry epoch reset, and accumulate again afterwards.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"

using namespace pciesim;

namespace
{

constexpr Tick quantum = 100;

/** A Simulation partitioned into two labelled domains with the
 *  engine attached; nothing scheduled yet. */
struct TwoDomainSim
{
    explicit TwoDomainSim(unsigned threads)
    {
        unsigned d1 = sim.addDomain("nic0");
        EXPECT_EQ(d1, 1u);
        sim.setupParallel(threads, quantum);
    }

    Simulation sim;
};

/** Kick off a ping-pong of @p rounds hops starting on domain 0 at
 *  @p at; every hop posts to the OTHER domain, so each one is
 *  exactly one cross-domain mailbox operation. */
struct PingPong
{
    PingPong(TwoDomainSim &t, int rounds, Tick at = 0)
        : start([this, &t, rounds] { hop(t, rounds, 0); },
                "test.start")
    {
        t.sim.domainQueue(0).schedule(&start, at);
    }

    void hop(TwoDomainSim &t, int left, unsigned cur)
    {
        ++fires;
        if (left > 0) {
            t.sim.callAt(1 - cur, t.sim.curTick() + quantum,
                         [this, &t, left, cur] {
                             hop(t, left - 1, 1 - cur);
                         });
        }
    }

    int fires = 0;
    EventFunctionWrapper start;
};

} // namespace

TEST(ParallelTelemetryTest, RecordsWindowsEventsAndMailboxTraffic)
{
    constexpr int rounds = 8;
    TwoDomainSim t(2);
    PingPong pp(t, rounds);
    t.sim.run();
    ASSERT_EQ(pp.fires, rounds + 1);

    ParallelEngine &eng = *t.sim.engine();
    // One window per quantum hop (plus the kick-off window).
    EXPECT_GE(eng.windowsSynced(), static_cast<std::uint64_t>(rounds));
    // Every fire executed on some domain's queue inside a window.
    std::uint64_t events = 0;
    for (unsigned d = 0; d < eng.numDomains(); ++d)
        events += eng.domainEvents(d);
    EXPECT_GE(events, static_cast<std::uint64_t>(rounds + 1));

    // rounds hops, each one mailboxed cross-domain exactly once —
    // both directions carry traffic and the totals balance.
    std::uint64_t sent = 0, received = 0;
    for (unsigned d = 0; d < eng.numDomains(); ++d) {
        sent += eng.mailboxSent(d);
        received += eng.mailboxReceived(d);
    }
    EXPECT_EQ(sent, static_cast<std::uint64_t>(rounds));
    EXPECT_EQ(sent, received);
    EXPECT_GT(eng.mailboxSent(0), 0u);
    EXPECT_GT(eng.mailboxSent(1), 0u);
    EXPECT_EQ(eng.mailboxPair(0, 1) + eng.mailboxPair(1, 0), sent);
    EXPECT_EQ(eng.hottestPeerOf(1).first, 0u);
    EXPECT_GT(eng.hottestPeerOf(1).second, 0u);

    // Perfectly alternating load: imbalance stays near 1.
    EXPECT_GE(eng.loadImbalance(), 1.0);
    EXPECT_LT(eng.loadImbalance(), 2.0);

    // Wall-derived quantities read 0 without --profile.
    EXPECT_EQ(eng.syncOverheadFraction(), 0.0);

    EXPECT_EQ(eng.domainLabel(0), "host");
    EXPECT_EQ(eng.domainLabel(1), "nic0");
}

TEST(ParallelTelemetryTest, StallWindowsClassifyLookaheadStarvation)
{
    // Domain 0 works every window; domain 1 holds one far-future
    // event, so until it fires every window leaves domain 1 with
    // pending work beyond the horizon and nothing executed.
    TwoDomainSim t(1);
    int busy = 0, far = 0;
    std::function<void(int)> churn = [&](int left) {
        ++busy;
        if (left > 0) {
            t.sim.callAt(0, t.sim.curTick() + quantum,
                         [&churn, left] { churn(left - 1); });
        }
    };
    EventFunctionWrapper start([&] { churn(10); }, "test.start");
    EventFunctionWrapper lone([&] { ++far; }, "test.lone");
    t.sim.domainQueue(0).schedule(&start, 0);
    t.sim.domainQueue(1).schedule(&lone, 5 * quantum);

    t.sim.run();
    EXPECT_EQ(busy, 11);
    EXPECT_EQ(far, 1);

    ParallelEngine &eng = *t.sim.engine();
    EXPECT_GT(eng.stallWindows(1), 0u);
    EXPECT_EQ(eng.stallWindows(0), 0u);
}

TEST(ParallelTelemetryTest, CountersSurviveDumpAndResetEpoch)
{
    TwoDomainSim t(2);
    PingPong pp(t, 6);
    t.sim.run();

    ParallelEngine &eng = *t.sim.engine();
    const std::uint64_t windows = eng.windowsSynced();
    const std::uint64_t sent = eng.mailboxSent(0) + eng.mailboxSent(1);
    ASSERT_GT(windows, 0u);
    ASSERT_GT(sent, 0u);

    // A dump is a read: nothing may consume the counters.
    std::ostringstream os;
    t.sim.statsRegistry().dumpJson(os, t.sim.curTick());
    EXPECT_NE(os.str().find("system.parallel.domainEvents"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"nic0\""), std::string::npos);
    EXPECT_EQ(eng.windowsSynced(), windows);
    EXPECT_EQ(eng.mailboxSent(0) + eng.mailboxSent(1), sent);

    // Epoch roll: registered telemetry zeroes with the registry.
    t.sim.statsRegistry().resetAll();
    EXPECT_EQ(eng.windowsSynced(), 0u);
    for (unsigned d = 0; d < eng.numDomains(); ++d) {
        EXPECT_EQ(eng.domainEvents(d), 0u);
        EXPECT_EQ(eng.stallWindows(d), 0u);
        EXPECT_EQ(eng.mailboxSent(d), 0u);
        EXPECT_EQ(eng.mailboxReceived(d), 0u);
    }

    // ...and the next run accumulates from zero, not from the
    // pre-reset totals.
    PingPong again(t, 4, t.sim.curTick() + quantum);
    t.sim.run();
    EXPECT_EQ(again.fires, 5);
    EXPECT_GT(eng.windowsSynced(), 0u);
    EXPECT_LT(eng.windowsSynced(), windows + 4);
    EXPECT_EQ(eng.mailboxSent(0) + eng.mailboxSent(1), 4u);
}

TEST(ParallelTelemetryTest, SparsePeerCountsAt4096Domains)
{
    // A 4096-domain ring, the 4096-endpoint scale: as dense (src,
    // dst) boxes and counts this would be 16.7M mailboxes plus a
    // 134 MB pair matrix. At tick 0 every domain d mails
    // (d % 3) + 1 calls to its ring successor, landing one per
    // window; domain 5 also mails domain 7 once, tying domain 6's
    // single op so the hottest-peer tie-break shows.
    constexpr unsigned n = 4096;
    for (unsigned threads : {1u, 4u}) {
        Simulation sim;
        for (unsigned d = 1; d < n; ++d)
            sim.addDomain();
        sim.setupParallel(threads, quantum);

        std::vector<std::unique_ptr<EventFunctionWrapper>> starts;
        for (unsigned d = 0; d < n; ++d) {
            starts.push_back(std::make_unique<EventFunctionWrapper>(
                [&sim, d] {
                    const unsigned next = (d + 1) % n;
                    for (unsigned k = 1; k <= d % 3 + 1; ++k)
                        sim.callAt(next, k * quantum, [] {});
                    if (d == 5)
                        sim.callAt(7, quantum, [] {});
                },
                "test.start"));
            sim.domainQueue(d).schedule(starts.back().get(), 0);
        }
        sim.run();

        ParallelEngine &eng = *sim.engine();
        ASSERT_EQ(eng.numDomains(), n);
        // Window 0 posts; windows 1..3 deliver.
        EXPECT_EQ(eng.windowsSynced(), 4u);
        std::uint64_t sent = 0;
        for (unsigned d = 0; d < n; ++d) {
            const unsigned prev = (d + n - 1) % n;
            const std::uint64_t ops = prev % 3 + 1;
            EXPECT_EQ(eng.mailboxPair(prev, d), ops) << d;
            EXPECT_EQ(eng.mailboxPair(d, d), 0u) << d;
            EXPECT_EQ(eng.mailboxPair((d + 1) % n, d), 0u) << d;
            if (d != 7) {
                EXPECT_EQ(eng.hottestPeerOf(d),
                          (std::pair<unsigned, std::uint64_t>{prev,
                                                              ops}))
                    << d;
            }
            sent += eng.mailboxSent(d);
        }
        EXPECT_EQ(eng.mailboxPair(5, 7), 1u);
        EXPECT_EQ(eng.mailboxPair(6, 7), 1u);
        EXPECT_EQ(eng.hottestPeerOf(7),
                  (std::pair<unsigned, std::uint64_t>{5, 1}));
        EXPECT_EQ(eng.mailboxReceived(7), 2u);
        // 1365 full cycles of (1 + 2 + 3), the leftover d = 4095
        // (one op), and domain 5's extra.
        EXPECT_EQ(sent, 1365u * 6u + 1u + 1u);
    }
}
