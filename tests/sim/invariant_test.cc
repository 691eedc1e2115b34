/**
 * @file
 * Tests for the debug-gated invariant audit layer (sim/invariant.hh).
 *
 * The macro contract is testable in every build mode: audit
 * conditions must not be evaluated when audits are compiled out,
 * and audit-only code must vanish. The death tests — a pooled
 * double free, a foreign pointer handed to the pool, a corrupted
 * replay-buffer sequence number — only exist in audit builds
 * (the `audit` preset), where they prove each audit actually fires.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/packet.hh"
#include "pcie/pcie_link.hh"
#include "pcie/replay_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"
#include "sim/simulation.hh"

using namespace pciesim;

TEST(InvariantTest, AuditConditionEvaluationMatchesBuildMode)
{
    int evaluations = 0;
    PCIESIM_AUDIT(++evaluations > 0, "never fires");
    EXPECT_EQ(evaluations, auditEnabled ? 1 : 0);
}

TEST(InvariantTest, AuditOnlyCodeMatchesBuildMode)
{
    int ran = 0;
    PCIESIM_AUDIT_ONLY(ran = 1;)
    EXPECT_EQ(ran, auditEnabled ? 1 : 0);
}

TEST(InvariantTest, HealthyEventQueuePassesHeapAudit)
{
    // 200 events: far past the near tier's capacity, so growing and
    // draining one event at a time crosses the tier boundary both
    // ways, with evictions on the way up and refills on the way
    // down.
    EventQueue q;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 200; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [] {}, "invariant.test.event"));
    }
    for (int i = 0; i < 200; ++i) {
        q.schedule(events[i].get(), (i * 37) % 29 + (i % 3) * 1000);
        q.auditTiers();
    }

    // Deschedule and reschedule in both tiers, and move events
    // between them; audit after each mutation shape.
    q.deschedule(events[10].get());
    q.deschedule(events[20].get());
    q.deschedule(events[151].get());
    q.auditTiers();
    q.reschedule(events[30].get(), 5000);
    q.reschedule(events[199].get(), 0);
    q.reschedule(events[152].get(), 1500);
    q.auditTiers();

    while (q.step())
        q.auditTiers();
    EXPECT_TRUE(q.empty());

    // And back up past the boundary from empty.
    for (int i = 0; i < 100; ++i) {
        q.schedule(events[i].get(), q.curTick() + (i * 13) % 7);
        q.auditTiers();
    }
    q.run();
    q.auditTiers();
    EXPECT_TRUE(q.empty());
}

TEST(InvariantTest, HealthyReplayBufferPassesSeqAudit)
{
    ReplayBuffer rb(4);
    for (SeqNum s = 1; s <= 4; ++s) {
        rb.push(PciePkt::makeTlp(
            Packet::makeRequest(MemCmd::ReadReq, 0x1000 * s, 64), s));
    }
    EXPECT_EQ(rb.ack(2), 2u);
    rb.push(PciePkt::makeTlp(
        Packet::makeRequest(MemCmd::ReadReq, 0x9000, 64), 5));
    EXPECT_EQ(rb.ack(5), 3u);
    EXPECT_TRUE(rb.empty());
}

TEST(InvariantTest, HealthyPoolRoundTripPassesAudit)
{
    PacketPool pool(64);
    void *a = pool.allocate();
    void *b = pool.allocate();
    pool.deallocate(a);
    pool.deallocate(b);
    void *c = pool.allocate();
    pool.deallocate(c);
    pool.shrink();
    EXPECT_EQ(pool.freeBlocks(), 0u);
}

#ifdef PCIESIM_ENABLE_AUDIT

TEST(InvariantDeathTest, PoolDoubleFreeFiresAudit)
{
    PacketPool pool(64);
    void *p = pool.allocate();
    pool.deallocate(p);
    EXPECT_DEATH(pool.deallocate(p), "double free or foreign pointer");
}

TEST(InvariantDeathTest, PoolForeignPointerFiresAudit)
{
    PacketPool pool(64);
    alignas(void *) unsigned char not_from_pool[64];
    EXPECT_DEATH(pool.deallocate(not_from_pool),
                 "double free or foreign pointer");
}

TEST(InvariantDeathTest, PooledPacketDoubleDeleteFiresAudit)
{
    // Exercise the audit through the real Packet operator delete,
    // not just the bare pool interface.
    Packet *raw = nullptr;
    {
        PacketPtr pkt = Packet::makeRequest(MemCmd::ReadReq, 0x40, 64);
        raw = pkt.get();
    }
    // raw's storage is already back on the freelist; freeing the
    // stale pointer again must be caught.
    EXPECT_DEATH(Packet::operator delete(raw),
                 "double free or foreign pointer");
}

TEST(InvariantDeathTest, ReplayBufferSeqCorruptionFiresAudit)
{
    ReplayBuffer rb(4);
    rb.push(PciePkt::makeTlp(
        Packet::makeRequest(MemCmd::ReadReq, 0x1000, 64), 7));
    rb.push(PciePkt::makeTlp(
        Packet::makeRequest(MemCmd::ReadReq, 0x2000, 64), 8));
    EXPECT_DEATH(rb.corruptSeqForAuditTest(1, 7),
                 "replay buffer seq order broken");
}

TEST(InvariantDeathTest, NakOutsideLossWindowFiresAudit)
{
    // At most one NAK per loss window: nakPending_ without
    // NAK_SCHEDULED means a second NAK was queued for the same
    // window.
    Simulation sim;
    PcieLink link(sim, "link", PcieLinkParams{});
    EXPECT_DEATH(link.upstreamIf().corruptNakStateForAuditTest(),
                 "NAK queued outside a loss window");
}

TEST(InvariantDeathTest, ReplayNumOverflowFiresAudit)
{
    // REPLAY_NUM past the threshold means a retrain was missed.
    Simulation sim;
    PcieLink link(sim, "link", PcieLinkParams{});
    EXPECT_DEATH(link.upstreamIf().corruptReplayNumForAuditTest(),
                 "exceeds the retrain threshold");
}

#endif // PCIESIM_ENABLE_AUDIT
