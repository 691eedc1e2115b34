#include "int_controller.hh"

#include "sim/logging.hh"

namespace pciesim
{

/**
 * Accepts posted message TLPs in the MSI window; the message data
 * selects the interrupt line.
 */
class IntController::MsiPort : public SlavePort
{
  public:
    MsiPort(IntController &gic, const std::string &name)
        : SlavePort(name), gic_(gic)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return gic_.handleMsi(pkt);
    }

    void recvRespRetry() override {}

    AddrRangeList
    getAddrRanges() const override
    {
        return {gic_.params_.msiRange};
    }

  private:
    IntController &gic_;
};

IntController::IntController(Simulation &sim, const std::string &name,
                             const IntControllerParams &params)
    : SimObject(sim, name), params_(params)
{
    msiPort_ = std::make_unique<MsiPort>(*this, name + ".msiPort");
}

IntController::~IntController() = default;

SlavePort &
IntController::msiPort()
{
    return *msiPort_;
}

bool
IntController::handleMsi(const PacketPtr &pkt)
{
    panicIf(!pkt->isWrite(), "non-write TLP in the MSI window");
    ++msis_;
    unsigned line = 0;
    if (pkt->hasData())
        line = pkt->get<std::uint16_t>();
    // Edge triggered: one dispatch per message.
    Line &l = getLine(line);
    if (l.handler && !l.dispatchPending) {
        l.dispatchPending = true;
        schedule(*l.dispatchEvent, params_.deliveryLatency);
    }
    if (pkt->needsResponse()) {
        pkt->makeResponse();
        // The response retraces the fabric; refusals are recovered
        // by the sender's link layer, so a failed send is dropped.
        (void)msiPort_->sendTimingResp(pkt);
    }
    return true;
}

void
IntController::init()
{
    statsRegistry().add(name(), "dispatched", &dispatched_,
                        "interrupt handler dispatches");
    statsRegistry().add(name(), "msis", &msis_,
                        "MSI messages received");
}

IntController::Line &
IntController::getLine(unsigned line)
{
    auto it = lines_.find(line);
    if (it == lines_.end()) {
        Line l;
        l.dispatchEvent = std::make_unique<EventFunctionWrapper>(
            [this, line] { dispatch(line); },
            name() + ".line" + std::to_string(line) + ".dispatch");
        it = lines_.emplace(line, std::move(l)).first;
    }
    return it->second;
}

void
IntController::setLevel(unsigned line, bool asserted)
{
    Line &l = getLine(line);
    bool was = l.asserted;
    l.asserted = asserted;
    if (asserted && !was && l.handler && !l.dispatchPending) {
        l.dispatchPending = true;
        schedule(*l.dispatchEvent, params_.deliveryLatency);
    }
}

void
IntController::registerHandler(unsigned line,
                               std::function<void()> handler)
{
    Line &l = getLine(line);
    l.handler = std::move(handler);
    if (l.asserted && !l.dispatchPending) {
        l.dispatchPending = true;
        schedule(*l.dispatchEvent, params_.deliveryLatency);
    }
}

void
IntController::dispatch(unsigned line)
{
    Line &l = getLine(line);
    l.dispatchPending = false;
    if (!l.handler)
        return;
    ++dispatched_;
    l.handler();
    // Level triggered: if the device still asserts the line after
    // the handler ran, dispatch again.
    if (l.asserted && !l.dispatchPending) {
        l.dispatchPending = true;
        schedule(*l.dispatchEvent, params_.deliveryLatency);
    }
}

bool
IntController::level(unsigned line) const
{
    auto it = lines_.find(line);
    return it != lines_.end() && it->second.asserted;
}

} // namespace pciesim
