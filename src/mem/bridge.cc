#include "bridge.hh"

namespace pciesim
{

class Bridge::BridgeSlavePort : public SlavePort
{
  public:
    BridgeSlavePort(Bridge &bridge, const std::string &name)
        : SlavePort(name), bridge_(bridge)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return bridge_.acceptRequest(pkt);
    }

    void
    recvRespRetry() override
    {
        bridge_.respQueue_->retryNotify();
    }

    AddrRangeList getAddrRanges() const override;

  private:
    Bridge &bridge_;
};

class Bridge::BridgeMasterPort : public MasterPort
{
  public:
    BridgeMasterPort(Bridge &bridge, const std::string &name)
        : MasterPort(name), bridge_(bridge)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return bridge_.acceptResponse(pkt);
    }

    void
    recvReqRetry() override
    {
        bridge_.reqQueue_->retryNotify();
    }

  private:
    Bridge &bridge_;
};

AddrRangeList
Bridge::BridgeSlavePort::getAddrRanges() const
{
    if (!bridge_.params_.ranges.empty())
        return bridge_.params_.ranges;
    return bridge_.masterPort_->peer().getAddrRanges();
}

SlavePort &
Bridge::slavePort()
{
    return *slavePort_;
}

MasterPort &
Bridge::masterPort()
{
    return *masterPort_;
}

Bridge::Bridge(Simulation &sim, const std::string &name,
               const BridgeParams &params)
    : SimObject(sim, name), params_(params)
{
    slavePort_ = std::make_unique<BridgeSlavePort>(*this,
                                                   name + ".slavePort");
    masterPort_ = std::make_unique<BridgeMasterPort>(*this,
                                                     name + ".masterPort");
    reqQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".reqQueue",
        [this](const PacketPtr &p) {
            return masterPort_->sendTimingReq(p);
        },
        params_.reqQueueCapacity, params_.serviceInterval);
    respQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".respQueue",
        [this](const PacketPtr &p) {
            return slavePort_->sendTimingResp(p);
        },
        params_.respQueueCapacity, params_.serviceInterval);

    reqQueue_->setOnSpaceFreed([this] {
        if (wantReqRetry_ && !reqQueue_->full()) {
            wantReqRetry_ = false;
            slavePort_->sendRetryReq();
        }
    });
    respQueue_->setOnSpaceFreed([this] {
        if (wantRespRetry_ && !respQueue_->full()) {
            wantRespRetry_ = false;
            masterPort_->sendRetryResp();
        }
    });
}

Bridge::~Bridge() = default;

void
Bridge::init()
{
    statsRegistry().add(name(), "fwdRequests", &fwdRequests_,
                        "requests forwarded");
    statsRegistry().add(name(), "fwdResponses", &fwdResponses_,
                        "responses forwarded");
    statsRegistry().add(name(), "reqRefusals", &reqRefusals_,
                        "requests refused (queue full)");
    statsRegistry().add(name(), "respRefusals", &respRefusals_,
                        "responses refused (queue full)");
    fatalIf(!slavePort_->isBound(),
            "bridge '", name(), "' slave port unbound");
    fatalIf(!masterPort_->isBound(),
            "bridge '", name(), "' master port unbound");
}

bool
Bridge::acceptRequest(const PacketPtr &pkt)
{
    if (reqQueue_->full()) {
        ++reqRefusals_;
        wantReqRetry_ = true;
        return false;
    }
    ++fwdRequests_;
    reqQueue_->push(pkt, curTick() + params_.delay);
    return true;
}

bool
Bridge::acceptResponse(const PacketPtr &pkt)
{
    if (respQueue_->full()) {
        ++respRefusals_;
        wantRespRetry_ = true;
        return false;
    }
    ++fwdResponses_;
    respQueue_->push(pkt, curTick() + params_.delay);
    return true;
}

} // namespace pciesim
