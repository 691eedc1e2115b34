#include "root_complex.hh"

#include "pci/config_regs.hh"
#include "pci/platform.hh"
#include "sim/trace.hh"

namespace pciesim
{

class RootComplex::UpSlavePort : public SlavePort
{
  public:
    UpSlavePort(RootComplex &rc, const std::string &name)
        : SlavePort(name), rc_(rc)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return rc_.handleUpstreamRequest(pkt);
    }

    void
    recvRespRetry() override
    {
        rc_.upRespQueue_->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // The root complex claims the whole off-chip PCI region on
        // the MemBus; fine-grained routing happens inside using the
        // VP2P windows.
        return {platform::offChipRange};
    }

  private:
    RootComplex &rc_;
};

class RootComplex::UpMasterPort : public MasterPort
{
  public:
    UpMasterPort(RootComplex &rc, const std::string &name)
        : MasterPort(name), rc_(rc)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return rc_.handleUpstreamResponse(pkt);
    }

    void
    recvReqRetry() override
    {
        rc_.upReqQueue_->retryNotify();
    }

  private:
    RootComplex &rc_;
};

class RootComplex::RootMasterPort : public MasterPort
{
  public:
    RootMasterPort(RootComplex &rc, unsigned index,
                   const std::string &name)
        : MasterPort(name), rc_(rc), index_(index)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return rc_.handleDownstreamResponse(pkt, index_);
    }

    void
    recvReqRetry() override
    {
        rc_.downReqQueues_[index_]->retryNotify();
    }

  private:
    RootComplex &rc_;
    unsigned index_;
};

class RootComplex::RootSlavePort : public SlavePort
{
  public:
    RootSlavePort(RootComplex &rc, unsigned index,
                  const std::string &name)
        : SlavePort(name), rc_(rc), index_(index)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return rc_.handleDownstreamRequest(pkt, index_);
    }

    void
    recvRespRetry() override
    {
        rc_.downRespQueues_[index_]->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // DMA from downstream reaches anything upstream (DRAM).
        return {platform::dramRange};
    }

  private:
    RootComplex &rc_;
    unsigned index_;
};

RootComplex::RootComplex(Simulation &sim, const std::string &name,
                         PciHost &host,
                         const RootComplexParams &params)
    : SimObject(sim, name), params_(params), host_(host)
{
    fatalIf(params_.numRootPorts == 0 || params_.numRootPorts > 8,
            "root complex '", name, "': 1..8 root ports supported");

    upSlave_ = std::make_unique<UpSlavePort>(*this,
                                             name + ".upSlave");
    upMaster_ = std::make_unique<UpMasterPort>(*this,
                                               name + ".upMaster");

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

    upReqQueue_->setOnSpaceFreed([this] {
        if (!upReqQueue_->full()) {
            for (unsigned i = 0; i < params_.numRootPorts; ++i) {
                if (linkWantsReqRetry_[i]) {
                    linkWantsReqRetry_[i] = false;
                    rootSlaves_[i]->sendRetryReq();
                }
            }
        }
    });
    upRespQueue_->setOnSpaceFreed([this] {
        if (!upRespQueue_->full()) {
            for (unsigned i = 0; i < params_.numRootPorts; ++i) {
                if (linkWantsRespRetry_[i]) {
                    linkWantsRespRetry_[i] = false;
                    rootMasters_[i]->sendRetryResp();
                }
            }
        }
    });

    // Device IDs follow the Intel Wildcat Point root ports the
    // paper uses: 0x9c90, 0x9c92, 0x9c94 (Sec. V-A).
    static constexpr std::uint16_t wildcat_ids[] = {
        cfg::deviceWildcatRp0, cfg::deviceWildcatRp1,
        cfg::deviceWildcatRp2, 0x9c96, 0x9c98, 0x9c9a, 0x9c9c, 0x9c9e,
    };

    linkWantsReqRetry_.assign(params_.numRootPorts, false);
    linkWantsRespRetry_.assign(params_.numRootPorts, false);

    for (unsigned i = 0; i < params_.numRootPorts; ++i) {
        std::string pname = name + ".rootPort" + std::to_string(i);
        rootMasters_.push_back(std::make_unique<RootMasterPort>(
            *this, i, pname + ".master"));
        rootSlaves_.push_back(std::make_unique<RootSlavePort>(
            *this, i, pname + ".slave"));

        Vp2pParams vp;
        vp.deviceId = wildcat_ids[i];
        vp.portType = cfg::PciePortType::RootPort;
        vp.linkWidth = params_.linkWidth;
        vp.linkGen = params_.linkGen;
        vp2ps_.push_back(
            std::make_unique<Vp2p>(pname + ".vp2p", vp));

        downReqQueues_.push_back(std::make_unique<PacketQueue>(
            eventq(), pname + ".reqQueue",
            [this, i](const PacketPtr &p) {
                return rootMasters_[i]->sendTimingReq(p);
            },
            params_.portBufferSize));
        downRespQueues_.push_back(std::make_unique<PacketQueue>(
            eventq(), pname + ".respQueue",
            [this, i](const PacketPtr &p) {
                return rootSlaves_[i]->sendTimingResp(p);
            },
            params_.portBufferSize));

        downReqQueues_[i]->setOnSpaceFreed([this, i] {
            if (memBusWantsRetry_ && !downReqQueues_[i]->full()) {
                memBusWantsRetry_ = false;
                upSlave_->sendRetryReq();
            }
        });
        downRespQueues_[i]->setOnSpaceFreed([this, i] {
            if (ioCacheWantsRetryResp_ &&
                !downRespQueues_[i]->full()) {
                ioCacheWantsRetryResp_ = false;
                upMaster_->sendRetryResp();
            }
        });

        // VP2Ps register with the PCI Host like endpoints
        // (paper Sec. V-A): bus 0, device number = port index.
        host.registerFunction(*vp2ps_[i],
                              Bdf{0, static_cast<std::uint8_t>(i), 0});
    }
}

RootComplex::~RootComplex() = default;

SlavePort &
RootComplex::upstreamSlavePort()
{
    return *upSlave_;
}

MasterPort &
RootComplex::upstreamMasterPort()
{
    return *upMaster_;
}

MasterPort &
RootComplex::rootPortMaster(unsigned i)
{
    return *rootMasters_.at(i);
}

SlavePort &
RootComplex::rootPortSlave(unsigned i)
{
    return *rootSlaves_.at(i);
}

Vp2p &
RootComplex::vp2p(unsigned i)
{
    return *vp2ps_.at(i);
}

void
RootComplex::init()
{
    auto &reg = statsRegistry();
    using stats::Unit;
    reg.add(name(), "fwdDownRequests", &fwdDownRequests_,
            "requests forwarded to root ports", Unit::Count);
    reg.add(name(), "fwdUpRequests", &fwdUpRequests_,
            "DMA requests forwarded to the IOCache", Unit::Count);
    reg.add(name(), "fwdDownResponses", &fwdDownResponses_,
            "responses forwarded to root ports", Unit::Count);
    reg.add(name(), "fwdUpResponses", &fwdUpResponses_,
            "responses forwarded to the MemBus", Unit::Count);
    reg.add(name(), "bufferRefusals", &bufferRefusals_,
            "packets refused due to full port buffers", Unit::Count);

    portRequests_.init(params_.numRootPorts);
    portResponses_.init(params_.numRootPorts);
    for (unsigned i = 0; i < params_.numRootPorts; ++i) {
        portRequests_.subname(i, "rootPort" + std::to_string(i));
        portResponses_.subname(i, "rootPort" + std::to_string(i));
    }
    reg.add(name(), "portRequests", &portRequests_,
            "requests forwarded per root port", Unit::Count);
    reg.add(name(), "portResponses", &portResponses_,
            "responses forwarded per root port", Unit::Count);

    fatalIf(!upSlave_->isBound(),
            "root complex '", name(), "' upstream slave unbound");
    fatalIf(!upMaster_->isBound(),
            "root complex '", name(), "' upstream master unbound");
    // Root ports may legitimately be left unconnected (the paper's
    // validation topology uses one of three); unbound ports just
    // never see traffic.
}

int
RootComplex::routeByAddress(Addr addr) const
{
    for (unsigned i = 0; i < params_.numRootPorts; ++i) {
        if (vp2ps_[i]->claims(addr))
            return static_cast<int>(i);
    }
    return -1;
}

int
RootComplex::routeByBus(int bus) const
{
    if (bus < 0)
        return -1;
    for (unsigned i = 0; i < params_.numRootPorts; ++i) {
        if (vp2ps_[i]->busInRange(static_cast<unsigned>(bus)))
            return static_cast<int>(i);
    }
    return -1;
}

bool
RootComplex::handleUpstreamRequest(const PacketPtr &pkt)
{
    // The upstream slave port stamps bus number 0 (paper Sec. V-A).
    if (pkt->pciBusNumber() < 0)
        pkt->setPciBusNumber(0);

    int port = routeByAddress(pkt->addr());
    panicIf(port < 0, "root complex '", name(),
            "': no VP2P window claims ", pkt->toString());

    auto &q = downReqQueues_[static_cast<unsigned>(port)];
    if (q->full()) {
        ++bufferRefusals_;
        memBusWantsRetry_ = true;
        return false;
    }
    ++fwdDownRequests_;
    ++portRequests_[static_cast<unsigned>(port)];
    TRACE_MSG(trace::Flag::Rc, curTick(), name(),
              "route down to root port ", port, ": ",
              pkt->toString());
    q->push(pkt, curTick() + params_.latency);
    return true;
}

bool
RootComplex::handleDownstreamRequest(const PacketPtr &pkt, unsigned i)
{
    // Stamp the ingress secondary bus number into the request so
    // the response can be routed back (paper Sec. V-A).
    if (pkt->pciBusNumber() < 0) {
        pkt->setPciBusNumber(
            static_cast<int>(vp2ps_[i]->secondaryBus()));
    }

    // Peer-to-peer: another VP2P window may claim the address.
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

    // Otherwise the DMA request heads for memory through the
    // IOCache.
    if (upReqQueue_->full()) {
        ++bufferRefusals_;
        linkWantsReqRetry_[i] = true;
        return false;
    }
    ++fwdUpRequests_;
    TRACE_MSG(trace::Flag::Rc, curTick(), name(),
              "DMA up from root port ", i, ": ", pkt->toString());
    upReqQueue_->push(pkt, curTick() + params_.latency);
    return true;
}

bool
RootComplex::handleUpstreamResponse(const PacketPtr &pkt)
{
    int port = routeByBus(pkt->pciBusNumber());
    panicIf(port < 0, "root complex '", name(),
            "': no VP2P bus range matches response ",
            pkt->toString());

    auto &q = downRespQueues_[static_cast<unsigned>(port)];
    if (q->full()) {
        ++bufferRefusals_;
        ioCacheWantsRetryResp_ = true;
        return false;
    }
    ++fwdDownResponses_;
    ++portResponses_[static_cast<unsigned>(port)];
    q->push(pkt, curTick() + params_.latency);
    return true;
}

bool
RootComplex::handleDownstreamResponse(const PacketPtr &pkt, unsigned i)
{
    // Responses whose bus number falls in a VP2P's range go back
    // down that root port; everything else exits the upstream
    // slave port (paper Sec. V-A).
    int port = routeByBus(pkt->pciBusNumber());
    if (port >= 0) {
        auto &q = downRespQueues_[static_cast<unsigned>(port)];
        if (q->full()) {
            ++bufferRefusals_;
            linkWantsRespRetry_[i] = true;
            return false;
        }
        ++fwdDownResponses_;
        ++portResponses_[static_cast<unsigned>(port)];
        q->push(pkt, curTick() + params_.latency);
        return true;
    }

    if (upRespQueue_->full()) {
        ++bufferRefusals_;
        linkWantsRespRetry_[i] = true;
        return false;
    }
    ++fwdUpResponses_;
    upRespQueue_->push(pkt, curTick() + params_.latency);
    return true;
}

} // namespace pciesim
