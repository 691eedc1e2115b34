/**
 * @file
 * Layer micro drivers: each calls one layer's public API in a
 * tight loop, times rounds of fixed work from outside, and reports
 * the median round. They follow the access patterns of the
 * repository's own kernel and micro benches (timer churn, pooled
 * packet allocation, crossbar forwarding, a pumped link pair).
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hh"
#include "mem/packet.hh"
#include "mem/xbar.hh"
#include "pcie/pcie_link.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace perfbench
{

namespace
{

using namespace pciesim;

/** A slave port that accepts and answers everything. */
class SinkPort : public SlavePort
{
  public:
    SinkPort(const std::string &name, AddrRangeList ranges)
        : SlavePort(name), ranges_(std::move(ranges))
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        ++received;
        if (pkt->needsResponse()) {
            pkt->makeResponse();
            (void)sendTimingResp(pkt);
        }
        return true;
    }

    void recvRespRetry() override {}

    AddrRangeList getAddrRanges() const override { return ranges_; }

    std::uint64_t received = 0;

  private:
    AddrRangeList ranges_;
};

/** A master port that drops responses. */
class PumpPort : public MasterPort
{
  public:
    using MasterPort::MasterPort;

    bool recvTimingResp(PacketPtr) override { return true; }
    void recvReqRetry() override {}
};

/**
 * Median of per-round rates: @p round does a fixed amount of work
 * and returns its unit count; rounds repeat for @p budget_s.
 */
double
medianRate(double budget_s, const std::function<double()> &round)
{
    std::vector<double> rates;
    Stopwatch total;
    while (rates.size() < 3 || total.seconds() < budget_s) {
        Stopwatch t;
        double units = round();
        rates.push_back(units / t.seconds());
    }
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

/**
 * Timer churn: 512 periodic events; each firing pushes a
 * neighbour's deadline out (the ACK-coalescing pattern), every
 * fourth cancels and re-arms another (the replay-timer pattern),
 * and each re-arms itself. Returns queue operations done.
 */
double
churnRound()
{
    constexpr std::size_t numTimers = 512;
    constexpr Tick period = 100;
    constexpr std::uint64_t fired = 200000;

    EventQueue q;
    std::vector<std::unique_ptr<EventFunctionWrapper>> timers;
    std::uint64_t ops = 0;
    timers.reserve(numTimers);
    for (std::size_t i = 0; i < numTimers; ++i) {
        timers.push_back(std::make_unique<EventFunctionWrapper>(
            [&q, &timers, &ops, i] {
                Event *self = timers[i].get();
                Event *neighbour = timers[(i + 1) % numTimers].get();
                Event *victim = timers[(i + 7) % numTimers].get();
                if (neighbour->scheduled()) {
                    q.reschedule(neighbour, q.curTick() + period);
                    ++ops;
                }
                if (i % 4 == 0 && victim->scheduled()) {
                    q.deschedule(victim);
                    q.schedule(victim, q.curTick() + period / 2);
                    ops += 2;
                }
                q.schedule(self, q.curTick() + period);
                ++ops;
            },
            "churn.timer"));
    }
    for (std::size_t i = 0; i < numTimers; ++i)
        q.schedule(timers[i].get(), period + (i % 16));
    while (q.numProcessed() < fired && !q.empty())
        q.step();
    for (auto &t : timers) {
        if (t->scheduled())
            q.deschedule(t.get());
    }
    return static_cast<double>(ops + q.numProcessed());
}

/** Pooled packet allocation: batches of 64 made, then released. */
double
poolRound()
{
    constexpr unsigned batches = 4096;
    constexpr unsigned batch = 64;
    PacketPtr live[batch];
    for (unsigned b = 0; b < batches; ++b) {
        for (unsigned i = 0; i < batch; ++i) {
            live[i] = Packet::makeRequest(MemCmd::WriteReq,
                                          static_cast<Addr>(i) * 64, 64);
        }
        for (unsigned i = 0; i < batch; ++i)
            live[i].reset();
    }
    return static_cast<double>(batches) * batch;
}

/**
 * One crossbar between a master and a sink port: each packet is
 * sent and its two forwarding events stepped. Returns packets.
 */
double
xbarRound()
{
    constexpr unsigned packets = 100000;
    Simulation sim;
    XBar xbar(sim, "xbar");
    PumpPort cpu("cpu");
    SinkPort dev("dev", {AddrRange{0, 1ULL << 32}});
    cpu.bind(xbar.addSlavePort("s"));
    xbar.addMasterPort("m").bind(dev);
    sim.initialize();
    Addr a = 0;
    for (unsigned i = 0; i < packets; ++i) {
        if (!cpu.sendTimingReq(
                Packet::makeRequest(MemCmd::WriteReq, a, 64))) {
            sim.run();
        }
        a = (a + 64) & 0xffffffu;
        sim.eventq().step();
        sim.eventq().step();
    }
    sim.run();
    return packets;
}

/**
 * A Gen2 x4 link pair pumped with 64 B posted writes as fast as
 * its data link layer accepts them. Returns TLPs delivered.
 */
double
linkRound()
{
    constexpr unsigned total = 4096;
    Simulation sim;
    PcieLinkParams params;
    params.width = 4;
    params.replayBufferSize = 64;
    params.ackImmediate = true;
    PcieLink link(sim, "link", params);
    PumpPort pump("pump");
    SinkPort sink("sink", {AddrRange{0, 1ULL << 40}});
    SinkPort dma_sink("dmaSink", {AddrRange{0, 1ULL << 40}});
    PumpPort dma_pump("dmaPump");
    pump.bind(link.upSlave());
    link.upMaster().bind(dma_sink);
    link.downMaster().bind(sink);
    dma_pump.bind(link.downSlave());
    sim.initialize();

    unsigned sent = 0;
    while (sink.received < total) {
        while (sent < total &&
               pump.sendTimingReq(Packet::makeRequest(
                   MemCmd::PostedWriteReq,
                   static_cast<Addr>(sent) * 64, 64))) {
            ++sent;
        }
        if (!sim.eventq().step())
            break;
    }
    return static_cast<double>(sink.received);
}

} // namespace

Record
runMicroDrivers(double budget_s)
{
    Record r;
    r.set("sim.eventq.churn_mops", medianRate(budget_s, churnRound) / 1e6);
    r.set("mem.pool.alloc_free_mops",
          medianRate(budget_s, poolRound) / 1e6);
    r.set("mem.xbar.forward_ns", 1e9 / medianRate(budget_s, xbarRound));
    r.set("pcie.link.tlps_per_s", medianRate(budget_s, linkRound));
    return r;
}

} // namespace perfbench
