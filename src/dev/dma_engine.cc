#include "dma_engine.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pciesim
{

DmaEngine::DmaEngine(SimObject &owner, MasterPort &port,
                     const std::string &name,
                     const DmaEngineParams &params)
    : owner_(owner), port_(port), name_(name), params_(params),
      issueEvent_(this, name + ".issueEvent"),
      watchdogEvent_(this, name + ".watchdogEvent")
{
    panicIf(params_.packetSize == 0, "DMA packet size must be > 0");
    owner_.statsRegistry().add(
        name_, "e2eLatency", &e2eLatency_,
        "DMA request-to-response latency (ticks)",
        stats::Unit::Tick);
}

void
DmaEngine::startWrite(Addr addr, std::uint64_t len,
                      std::function<void()> on_complete)
{
    onData_ = nullptr;
    writePayload_.clear();
    start(params_.postedWrites ? MemCmd::PostedWriteReq
                               : MemCmd::WriteReq,
          addr, len, std::move(on_complete));
}

void
DmaEngine::startWriteData(Addr addr, const std::uint8_t *data,
                          unsigned len,
                          std::function<void()> on_complete)
{
    panicIf(len > params_.packetSize,
            "payload write larger than one packet");
    onData_ = nullptr;
    writePayload_.assign(data, data + len);
    start(MemCmd::WriteReq, addr, len, std::move(on_complete));
}

void
DmaEngine::startMessage(Addr addr, std::uint16_t data,
                        std::function<void()> on_complete)
{
    onData_ = nullptr;
    writePayload_ = {static_cast<std::uint8_t>(data & 0xff),
                     static_cast<std::uint8_t>((data >> 8) & 0xff)};
    start(MemCmd::MessageReq, addr, 2, std::move(on_complete));
}

void
DmaEngine::startRead(Addr addr, std::uint64_t len,
                     std::function<void()> on_complete,
                     std::function<void(const PacketPtr &)> on_data)
{
    onData_ = std::move(on_data);
    writePayload_.clear();
    start(MemCmd::ReadReq, addr, len, std::move(on_complete));
}

void
DmaEngine::start(MemCmd cmd, Addr addr, std::uint64_t len,
                 std::function<void()> on_complete)
{
    panicIf(busy_, "DMA engine '", name_,
            "' started while a transfer is in flight");
    panicIf(len == 0, "zero-length DMA transfer");

    busy_ = true;
    cmd_ = cmd;
    nextAddr_ = addr;
    remaining_ = len;
    outstanding_ = 0;
    waitingRetry_ = false;
    onComplete_ = std::move(on_complete);

    TRACE_SPAN_BEGIN(trace::Flag::Dma, owner_.curTick(), name_,
                     cmd == MemCmd::ReadReq ? "dma read " : "dma write ",
                     len, "B @", addr);

    armWatchdog();
    if (!issueEvent_.scheduled())
        owner_.schedule(issueEvent_, 0);
}

void
DmaEngine::armWatchdog()
{
    if (params_.completionTimeout == 0)
        return;
    if (watchdogEvent_.scheduled())
        owner_.eventq().deschedule(&watchdogEvent_);
    owner_.schedule(watchdogEvent_, params_.completionTimeout);
}

void
DmaEngine::completionTimedOut()
{
    if (!busy_)
        return;
    ++completionTimeouts_;
    if (timeoutHook_)
        timeoutHook_();
    TRACE_MSG(trace::Flag::Dma, owner_.curTick(), name_,
              "completion timeout, aborting transfer");
    inform("dma engine '", name_, "': transfer timed out with ",
           outstanding_, " responses outstanding; aborting");
    // Abort: forget what is still owed (recvResp drops the
    // stragglers) and complete so the owning device's state
    // machine can report the error and move on.
    staleResponses_ += outstanding_;
    outstanding_ = 0;
    remaining_ = 0;
    waitingRetry_ = false;
    maybeComplete();
}

void
DmaEngine::cancel()
{
    if (watchdogEvent_.scheduled())
        owner_.eventq().deschedule(&watchdogEvent_);
    if (issueEvent_.scheduled())
        owner_.eventq().deschedule(&issueEvent_);
    if (!busy_)
        return;
    TRACE_SPAN_END(trace::Flag::Dma, owner_.curTick(), name_);
    busy_ = false;
    outstanding_ = 0;
    remaining_ = 0;
    waitingRetry_ = false;
    staleResponses_ = 0;
    onComplete_ = nullptr;
    onData_ = nullptr;
}

void
DmaEngine::issue()
{
    while (remaining_ > 0 && outstanding_ < params_.maxOutstanding) {
        unsigned size = static_cast<unsigned>(
            std::min<std::uint64_t>(params_.packetSize, remaining_));
        PacketPtr pkt = Packet::makeRequest(cmd_, nextAddr_, size);
        pkt->setCreationTick(owner_.curTick());
        if (!writePayload_.empty() &&
            (cmd_ == MemCmd::WriteReq ||
             cmd_ == MemCmd::MessageReq)) {
            pkt->setData(writePayload_.data(), size);
        }

        // Account before sending: a peer may respond synchronously
        // from within sendTimingReq (which also flips the packet to
        // a response in place - snapshot its posted-ness first).
        bool posted = !pkt->needsResponse();
        nextAddr_ += size;
        remaining_ -= size;
        ++outstanding_;
        ++totalPackets_;

        if (!port_.sendTimingReq(pkt)) {
            // Refused: rewind and wait for the retry.
            nextAddr_ -= size;
            remaining_ += size;
            --outstanding_;
            --totalPackets_;
            waitingRetry_ = true;
            return;
        }
        if (posted) {
            // Posted: completes at issue (the data link layer
            // guarantees delivery hop by hop).
            --outstanding_;
            totalBytes_ += size;
        }
    }
    maybeComplete();
}

void
DmaEngine::maybeComplete()
{
    if (busy_ && remaining_ == 0 && outstanding_ == 0) {
        busy_ = false;
        TRACE_SPAN_END(trace::Flag::Dma, owner_.curTick(), name_);
        if (watchdogEvent_.scheduled())
            owner_.eventq().deschedule(&watchdogEvent_);
        if (onComplete_) {
            auto cb = std::move(onComplete_);
            onComplete_ = nullptr;
            cb();
        }
    }
}

bool
DmaEngine::recvResp(const PacketPtr &pkt)
{
    if (staleResponses_ > 0) {
        // A completion owed by a transfer the watchdog aborted.
        --staleResponses_;
        return true;
    }
    panicIf(!busy_, "DMA engine '", name_, "' got stray response");
    panicIf(outstanding_ == 0,
            "DMA engine '", name_, "' response underflow");
    --outstanding_;
    totalBytes_ += pkt->size();
    e2eLatency_.sample(owner_.curTick() - pkt->creationTick());
    armWatchdog();

    if (onData_ && pkt->isRead())
        onData_(pkt);

    if (remaining_ > 0 && !waitingRetry_ &&
        !issueEvent_.scheduled()) {
        owner_.schedule(issueEvent_, 0);
    }

    maybeComplete();
    return true;
}

void
DmaEngine::recvRetry()
{
    if (!waitingRetry_)
        return;
    waitingRetry_ = false;
    if (!issueEvent_.scheduled())
        owner_.schedule(issueEvent_, 0);
}

} // namespace pciesim
