#include "pcie_switch.hh"

#include "pci/config_regs.hh"
#include "pci/platform.hh"
#include "sim/trace.hh"

namespace pciesim
{

class PcieSwitch::UpSlavePort : public SlavePort
{
  public:
    UpSlavePort(PcieSwitch &sw, const std::string &name)
        : SlavePort(name), sw_(sw)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return sw_.handleDownwardRequest(pkt);
    }

    void
    recvRespRetry() override
    {
        sw_.upRespQueue_->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // The upstream slave port accepts the window programmed
        // into the upstream VP2P (paper Sec. V-B).
        AddrRangeList ranges;
        AddrRange mem = sw_.upVp2p_->memWindow();
        AddrRange io = sw_.upVp2p_->ioWindow();
        if (!mem.empty())
            ranges.push_back(mem);
        if (!io.empty())
            ranges.push_back(io);
        return ranges;
    }

  private:
    PcieSwitch &sw_;
};

class PcieSwitch::UpMasterPort : public MasterPort
{
  public:
    UpMasterPort(PcieSwitch &sw, const std::string &name)
        : MasterPort(name), sw_(sw)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return sw_.handleDownwardResponse(pkt);
    }

    void
    recvReqRetry() override
    {
        sw_.upReqQueue_->retryNotify();
    }

  private:
    PcieSwitch &sw_;
};

class PcieSwitch::DownMasterPort : public MasterPort
{
  public:
    DownMasterPort(PcieSwitch &sw, unsigned index,
                   const std::string &name)
        : MasterPort(name), sw_(sw), index_(index)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return sw_.handleUpwardResponse(pkt, index_);
    }

    void
    recvReqRetry() override
    {
        sw_.downReqQueues_[index_]->retryNotify();
    }

  private:
    PcieSwitch &sw_;
    unsigned index_;
};

class PcieSwitch::DownSlavePort : public SlavePort
{
  public:
    DownSlavePort(PcieSwitch &sw, unsigned index,
                  const std::string &name)
        : SlavePort(name), sw_(sw), index_(index)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return sw_.handleUpwardRequest(pkt, index_);
    }

    void
    recvRespRetry() override
    {
        sw_.downRespQueues_[index_]->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // DMA from below the switch reaches memory above it.
        return {platform::dramRange};
    }

  private:
    PcieSwitch &sw_;
    unsigned index_;
};

PcieSwitch::PcieSwitch(Simulation &sim, const std::string &name,
                       const PcieSwitchParams &params)
    : SimObject(sim, name), params_(params),
      contained_(params.numDownstreamPorts, false)
{
    fatalIf(params_.numDownstreamPorts == 0 ||
            params_.numDownstreamPorts > 16,
            "switch '", name, "': 1..16 downstream ports supported");

    upSlave_ = std::make_unique<UpSlavePort>(*this, name + ".upSlave");
    upMaster_ = std::make_unique<UpMasterPort>(*this,
                                               name + ".upMaster");

    Vp2pParams up_vp;
    up_vp.deviceId = cfg::deviceSwitchPort;
    up_vp.portType = cfg::PciePortType::SwitchUpstream;
    up_vp.linkWidth = params_.linkWidth;
    up_vp.linkGen = params_.linkGen;
    up_vp.slotImplemented = false;
    upVp2p_ = std::make_unique<Vp2p>(name + ".upVp2p", up_vp);

    upReqQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".upReqQueue",
        [this](const PacketPtr &p) {
            return upMaster_->sendTimingReq(p);
        },
        params_.portBufferSize);
    upRespQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".upRespQueue",
        [this](const PacketPtr &p) {
            return upSlave_->sendTimingResp(p);
        },
        params_.portBufferSize);

    for (unsigned i = 0; i < params_.numDownstreamPorts; ++i) {
        std::string pname = name + ".downPort" + std::to_string(i);
        downMasters_.push_back(std::make_unique<DownMasterPort>(
            *this, i, pname + ".master"));
        downSlaves_.push_back(std::make_unique<DownSlavePort>(
            *this, i, pname + ".slave"));

        Vp2pParams vp;
        vp.deviceId = cfg::deviceSwitchPort;
        vp.portType = cfg::PciePortType::SwitchDownstream;
        vp.linkWidth = params_.linkWidth;
        vp.linkGen = params_.linkGen;
        downVp2ps_.push_back(
            std::make_unique<Vp2p>(pname + ".vp2p", vp));

        downReqQueues_.push_back(std::make_unique<PacketQueue>(
            eventq(), pname + ".reqQueue",
            [this, i](const PacketPtr &p) {
                return downMasters_[i]->sendTimingReq(p);
            },
            params_.portBufferSize));
        downRespQueues_.push_back(std::make_unique<PacketQueue>(
            eventq(), pname + ".respQueue",
            [this, i](const PacketPtr &p) {
                return downSlaves_[i]->sendTimingResp(p);
            },
            params_.portBufferSize));
    }
}

PcieSwitch::~PcieSwitch() = default;

SlavePort &
PcieSwitch::upstreamSlavePort()
{
    return *upSlave_;
}

MasterPort &
PcieSwitch::upstreamMasterPort()
{
    return *upMaster_;
}

MasterPort &
PcieSwitch::downstreamMaster(unsigned i)
{
    return *downMasters_.at(i);
}

SlavePort &
PcieSwitch::downstreamSlave(unsigned i)
{
    return *downSlaves_.at(i);
}

Vp2p &
PcieSwitch::upstreamVp2p()
{
    return *upVp2p_;
}

Vp2p &
PcieSwitch::downstreamVp2p(unsigned i)
{
    return *downVp2ps_.at(i);
}

void
PcieSwitch::init()
{
    auto &reg = statsRegistry();
    using stats::Unit;
    reg.add(name(), "fwdDownRequests", &fwdDownRequests_,
            "requests forwarded to downstream ports", Unit::Count);
    reg.add(name(), "fwdUpRequests", &fwdUpRequests_,
            "requests forwarded upstream", Unit::Count);
    reg.add(name(), "fwdDownResponses", &fwdDownResponses_,
            "responses forwarded to downstream ports", Unit::Count);
    reg.add(name(), "fwdUpResponses", &fwdUpResponses_,
            "responses forwarded upstream", Unit::Count);
    reg.add(name(), "bufferRefusals", &bufferRefusals_,
            "packets refused due to full port buffers", Unit::Count);

    portRequests_.init(params_.numDownstreamPorts);
    portResponses_.init(params_.numDownstreamPorts);
    for (unsigned i = 0; i < params_.numDownstreamPorts; ++i) {
        portRequests_.subname(i, "port" + std::to_string(i));
        portResponses_.subname(i, "port" + std::to_string(i));
    }
    reg.add(name(), "portRequests", &portRequests_,
            "requests forwarded per downstream port", Unit::Count);
    reg.add(name(), "portResponses", &portResponses_,
            "responses forwarded per downstream port", Unit::Count);

    if (params_.enableContainment) {
        reg.add(name(), "containments", &containments_,
                "downstream ports taken down after a FATAL error",
                Unit::Count);
        reg.add(name(), "containedDrops", &containedDrops_,
                "TLPs dropped at contained downstream ports",
                Unit::Count);
        reg.add(name(), "urCompletions", &urCompletions_,
                "all-ones UR completions for reads to contained "
                "ports", Unit::Count);
    }

    fatalIf(!upSlave_->isBound() || !upMaster_->isBound(),
            "switch '", name(), "' upstream port unbound");
}

void
PcieSwitch::containDownstreamPort(unsigned i)
{
    panicIf(!params_.enableContainment, "switch '", name(),
            "': containment requested but not enabled");
    panicIf(i >= params_.numDownstreamPorts, "switch '", name(),
            "': containing nonexistent port ", i);
    if (contained_[i])
        return;
    contained_[i] = true;
    ++containments_;
    // The port is down: whatever was queued toward (or from) the
    // dead device is lost with it.
    std::size_t dropped = downReqQueues_[i]->clear() +
                          downRespQueues_[i]->clear();
    containedDrops_ += dropped;
    TRACE_MSG(trace::Flag::Switch, curTick(), name(),
              "contained downstream port ", i, "; dropped ", dropped,
              " queued TLPs");
    inform("switch '", name(), "': downstream port ", i,
           " contained after FATAL error (", dropped,
           " TLPs dropped)");
}

void
PcieSwitch::releaseDownstreamPort(unsigned i)
{
    panicIf(i >= params_.numDownstreamPorts, "switch '", name(),
            "': releasing nonexistent port ", i);
    if (!contained_[i])
        return;
    contained_[i] = false;
    TRACE_MSG(trace::Flag::Switch, curTick(), name(),
              "released downstream port ", i);
}

bool
PcieSwitch::portContained(unsigned i) const
{
    return i < contained_.size() && contained_[i];
}

int
PcieSwitch::downstreamPortForBus(unsigned bus) const
{
    return routeByBus(static_cast<int>(bus));
}

int
PcieSwitch::routeByAddress(Addr addr) const
{
    for (unsigned i = 0; i < params_.numDownstreamPorts; ++i) {
        if (downVp2ps_[i]->claims(addr))
            return static_cast<int>(i);
    }
    return -1;
}

int
PcieSwitch::routeByBus(int bus) const
{
    if (bus < 0)
        return -1;
    for (unsigned i = 0; i < params_.numDownstreamPorts; ++i) {
        if (downVp2ps_[i]->busInRange(static_cast<unsigned>(bus)))
            return static_cast<int>(i);
    }
    return -1;
}

bool
PcieSwitch::handleDownwardRequest(const PacketPtr &pkt)
{
    if (pkt->pciBusNumber() < 0) {
        pkt->setPciBusNumber(
            static_cast<int>(upVp2p_->secondaryBus()));
    }

    int port = routeByAddress(pkt->addr());
    panicIf(port < 0, "switch '", name(),
            "': no downstream VP2P window claims ", pkt->toString());

    if (contained_[static_cast<unsigned>(port)]) {
        // Port is error-contained: non-posted requests complete as
        // unsupported requests (all-ones data), posted ones vanish.
        if (pkt->needsResponse()) {
            if (upRespQueue_->full()) {
                ++bufferRefusals_;
                return false;
            }
            pkt->makeResponse();
            if (pkt->isRead()) {
                switch (pkt->size()) {
                  case 1:
                    pkt->set<std::uint8_t>(0xff);
                    break;
                  case 2:
                    pkt->set<std::uint16_t>(0xffff);
                    break;
                  case 4:
                    pkt->set<std::uint32_t>(0xffffffffu);
                    break;
                  default:
                    pkt->set<std::uint64_t>(~0ULL);
                    break;
                }
            }
            ++urCompletions_;
            TRACE_MSG(trace::Flag::Switch, curTick(), name(),
                      "UR completion for contained port ", port, ": ",
                      pkt->toString());
            upRespQueue_->push(pkt, curTick() + params_.latency);
        } else {
            ++containedDrops_;
        }
        return true;
    }

    auto &q = downReqQueues_[static_cast<unsigned>(port)];
    if (q->full()) {
        ++bufferRefusals_;
        return false;
    }
    ++fwdDownRequests_;
    ++portRequests_[static_cast<unsigned>(port)];
    TRACE_MSG(trace::Flag::Switch, curTick(), name(),
              "route down to port ", port, ": ", pkt->toString());
    q->push(pkt, curTick() + params_.latency);
    return true;
}

bool
PcieSwitch::handleUpwardRequest(const PacketPtr &pkt, unsigned i)
{
    if (contained_[i]) {
        // Stale traffic from a contained (removed) device: drop it.
        ++containedDrops_;
        return true;
    }

    if (pkt->pciBusNumber() < 0) {
        pkt->setPciBusNumber(
            static_cast<int>(downVp2ps_[i]->secondaryBus()));
    }

    // Peer-to-peer between downstream ports.
    int port = routeByAddress(pkt->addr());
    if (port >= 0) {
        auto &q = downReqQueues_[static_cast<unsigned>(port)];
        if (q->full()) {
            ++bufferRefusals_;
            return false;
        }
        ++fwdDownRequests_;
        ++portRequests_[static_cast<unsigned>(port)];
        q->push(pkt, curTick() + params_.latency);
        return true;
    }

    if (upReqQueue_->full()) {
        ++bufferRefusals_;
        return false;
    }
    ++fwdUpRequests_;
    TRACE_MSG(trace::Flag::Switch, curTick(), name(),
              "route up from port ", i, ": ", pkt->toString());
    upReqQueue_->push(pkt, curTick() + params_.latency);
    return true;
}

bool
PcieSwitch::handleDownwardResponse(const PacketPtr &pkt)
{
    int port = routeByBus(pkt->pciBusNumber());
    panicIf(port < 0, "switch '", name(),
            "': no downstream VP2P bus range matches response ",
            pkt->toString());

    if (contained_[static_cast<unsigned>(port)]) {
        ++containedDrops_;
        return true;
    }

    auto &q = downRespQueues_[static_cast<unsigned>(port)];
    if (q->full()) {
        ++bufferRefusals_;
        return false;
    }
    ++fwdDownResponses_;
    ++portResponses_[static_cast<unsigned>(port)];
    q->push(pkt, curTick() + params_.latency);
    return true;
}

bool
PcieSwitch::handleUpwardResponse(const PacketPtr &pkt, unsigned i)
{
    (void)i;
    int port = routeByBus(pkt->pciBusNumber());
    if (port >= 0) {
        auto &q = downRespQueues_[static_cast<unsigned>(port)];
        if (q->full()) {
            ++bufferRefusals_;
            return false;
        }
        ++fwdDownResponses_;
        ++portResponses_[static_cast<unsigned>(port)];
        q->push(pkt, curTick() + params_.latency);
        return true;
    }

    if (upRespQueue_->full()) {
        ++bufferRefusals_;
        return false;
    }
    ++fwdUpResponses_;
    upRespQueue_->push(pkt, curTick() + params_.latency);
    return true;
}

} // namespace pciesim
