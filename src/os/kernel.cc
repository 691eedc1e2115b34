#include "kernel.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pciesim
{

class Kernel::CpuPort : public MasterPort
{
  public:
    CpuPort(Kernel &kernel, const std::string &name)
        : MasterPort(name), kernel_(kernel)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return kernel_.recvMmioResp(pkt);
    }

    void
    recvReqRetry() override
    {
        if (kernel_.mmioWaitingRetry_) {
            kernel_.mmioWaitingRetry_ = false;
            kernel_.issueNextMmio();
        }
    }

  private:
    Kernel &kernel_;
};

Kernel::Kernel(Simulation &sim, const std::string &name, PciHost &host,
               IntController &gic, SimpleMemory &dram,
               const KernelParams &params)
    : SimObject(sim, name), params_(params), host_(host), gic_(gic),
      dram_(dram),
      mmioIssueEvent_(this, name + ".mmioIssueEvent"),
      mmioTimeoutEvent_(this, name + ".mmioTimeoutEvent"),
      dmaBrk_(params.dmaRegionBase)
{
    cpuPort_ = std::make_unique<CpuPort>(*this, name + ".cpuPort");
}

Kernel::~Kernel() = default;

MasterPort &
Kernel::cpuPort()
{
    return *cpuPort_;
}

void
Kernel::init()
{
    using stats::Unit;
    statsRegistry().add(name(), "mmioOps", &mmioOps_,
                        "timed MMIO operations completed",
                        Unit::Count);
    statsRegistry().add(name(), "irqsHandled", &irqsHandled_,
                        "interrupt handlers run", Unit::Count);
    statsRegistry().add(name(), "completionTimeouts",
                        &completionTimeouts_,
                        "MMIO operations failed by completion "
                        "timeout", Unit::Count);
    // Gated on the knob so fault-free dumps stay bit-identical.
    if (params_.completionTimeout > 0) {
        statsRegistry().add(name(), "abortedReads", &abortedReads_,
                            "MMIO reads aborted with all-ones by "
                            "the completion timeout", Unit::Count);
    }
    statsRegistry().add(name(), "mmioLatency", &mmioLatency_,
                        "MMIO issue-to-completion latency (ticks)",
                        Unit::Tick);
    fatalIf(!cpuPort_->isBound(),
            "kernel '", name(), "' CPU port unbound");
}

void
Kernel::mmioRead(Addr addr, unsigned size,
                 std::function<void(std::uint64_t)> done)
{
    MmioOp op;
    op.isRead = true;
    op.addr = addr;
    op.size = size;
    op.onRead = std::move(done);
    mmioQueue_.push_back(std::move(op));
    if (!mmioInFlight_ && !mmioIssueEvent_.scheduled())
        schedule(mmioIssueEvent_, params_.mmioIssueLatency);
}

void
Kernel::mmioWrite(Addr addr, unsigned size, std::uint64_t value,
                  std::function<void()> done)
{
    MmioOp op;
    op.isRead = false;
    op.addr = addr;
    op.size = size;
    op.value = value;
    op.onWrite = std::move(done);
    mmioQueue_.push_back(std::move(op));
    if (!mmioInFlight_ && !mmioIssueEvent_.scheduled())
        schedule(mmioIssueEvent_, params_.mmioIssueLatency);
}

void
Kernel::issueNextMmio()
{
    if (mmioInFlight_ || mmioQueue_.empty())
        return;

    const MmioOp &op = mmioQueue_.front();
    if (!mmioPkt_) {
        MemCmd cmd = op.isRead ? MemCmd::ReadReq : MemCmd::WriteReq;
        mmioPkt_ = Packet::makeRequest(cmd, op.addr, op.size);
        mmioPkt_->setCreationTick(curTick());
        if (!op.isRead) {
            switch (op.size) {
              case 1:
                mmioPkt_->set<std::uint8_t>(op.value & 0xff);
                break;
              case 2:
                mmioPkt_->set<std::uint16_t>(op.value & 0xffff);
                break;
              case 4:
                mmioPkt_->set<std::uint32_t>(op.value & 0xffffffff);
                break;
              case 8:
                mmioPkt_->set<std::uint64_t>(op.value);
                break;
              default:
                panic("unsupported MMIO size ", op.size);
            }
        }
    }

    if (!cpuPort_->sendTimingReq(mmioPkt_)) {
        mmioWaitingRetry_ = true;
        return;
    }
    mmioInFlight_ = true;
    TRACE_SPAN_BEGIN(trace::Flag::Mmio, curTick(), name(),
                     op.isRead ? "mmio read @" : "mmio write @",
                     op.addr);
    if (params_.completionTimeout > 0 &&
        !mmioTimeoutEvent_.scheduled()) {
        schedule(mmioTimeoutEvent_, params_.completionTimeout);
    }
}

bool
Kernel::recvMmioResp(const PacketPtr &pkt)
{
    if (pkt != mmioPkt_) {
        // With a completion timeout armed, a completion may arrive
        // after its op was already failed and retired: drop it.
        panicIf(params_.completionTimeout == 0,
                "kernel got unexpected MMIO response ",
                pkt->toString());
        return true;
    }
    panicIf(!mmioInFlight_,
            "kernel got unexpected MMIO response ", pkt->toString());
    if (mmioTimeoutEvent_.scheduled())
        eventq().deschedule(&mmioTimeoutEvent_);
    MmioOp op = std::move(mmioQueue_.front());
    mmioQueue_.pop_front();
    mmioInFlight_ = false;
    mmioLatency_.sample(curTick() - pkt->creationTick());
    TRACE_SPAN_END(trace::Flag::Mmio, curTick(), name());
    mmioPkt_.reset();
    ++mmioOps_;

    if (op.isRead) {
        std::uint64_t v = 0;
        if (pkt->hasData()) {
            switch (op.size) {
              case 1: v = pkt->get<std::uint8_t>(); break;
              case 2: v = pkt->get<std::uint16_t>(); break;
              case 4: v = pkt->get<std::uint32_t>(); break;
              case 8: v = pkt->get<std::uint64_t>(); break;
              default: break;
            }
        }
        if (op.onRead)
            op.onRead(v);
    } else if (op.onWrite) {
        op.onWrite();
    }

    if (!mmioQueue_.empty() && !mmioInFlight_ &&
        !mmioIssueEvent_.scheduled()) {
        schedule(mmioIssueEvent_, params_.mmioIssueLatency);
    }
    return true;
}

void
Kernel::mmioTimeoutFired()
{
    if (!mmioInFlight_)
        return;
    ++completionTimeouts_;
    TRACE_SPAN_END(trace::Flag::Mmio, curTick(), name());
    TRACE_MSG(trace::Flag::Mmio, curTick(), name(),
              "MMIO completion timeout; returning all-ones");
    inform("kernel: MMIO ", mmioQueue_.front().isRead ? "read"
                                                      : "write",
           " to ", mmioQueue_.front().addr,
           " timed out; completing with all-ones");

    MmioOp op = std::move(mmioQueue_.front());
    mmioQueue_.pop_front();
    mmioInFlight_ = false;
    // Dropping the packet reference unmatches any late completion;
    // recvMmioResp discards it on arrival.
    mmioPkt_.reset();

    if (mmioTimeoutHook_)
        mmioTimeoutHook_(op.isRead);
    if (op.isRead) {
        ++abortedReads_;
        // Distinct instant so aborted loads are attributable in the
        // Perfetto timeline, separate from the generic timeout note.
        TRACE_MSG(trace::Flag::Mmio, curTick(), name(),
                  "aborted read @", op.addr, " (all-ones)");
        if (op.onRead)
            op.onRead(~0ULL);
    } else if (op.onWrite) {
        op.onWrite();
    }

    if (!mmioQueue_.empty() && !mmioIssueEvent_.scheduled())
        schedule(mmioIssueEvent_, params_.mmioIssueLatency);
}

std::uint32_t
Kernel::configRead(Bdf bdf, unsigned offset, unsigned size)
{
    return host_.configRead(bdf, offset, size);
}

void
Kernel::configWrite(Bdf bdf, unsigned offset, unsigned size,
                    std::uint32_t value)
{
    host_.configWrite(bdf, offset, size, value);
}

void
Kernel::memWriteBlob(Addr addr, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i)
        dram_.writeByte(addr + i, bytes[i]);
}

void
Kernel::memReadBlob(Addr addr, void *data, std::size_t len)
{
    auto *bytes = static_cast<std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i)
        bytes[i] = dram_.readByte(addr + i);
}

Addr
Kernel::allocDma(std::uint64_t size, std::uint64_t align)
{
    Addr base = (dmaBrk_ + align - 1) & ~(align - 1);
    fatalIf(base + size > params_.dmaRegionEnd,
            "kernel DMA region exhausted");
    dmaBrk_ = base + size;
    return base;
}

const Enumerator::Result &
Kernel::enumerate()
{
    if (!enumerated_) {
        Enumerator enumerator(host_);
        enumResult_ = enumerator.enumerate();
        enumerated_ = true;
        inform("kernel: enumerated ", enumResult_.functions.size(),
               " PCI functions on ", enumResult_.numBuses, " buses");
    }
    return enumResult_;
}

void
Kernel::registerDriver(Driver &driver)
{
    drivers_.push_back(&driver);
}

void
Kernel::probeDrivers()
{
    const auto &result = enumerate();
    for (const auto &fn : result.functions) {
        for (Driver *driver : drivers_) {
            if (driver->bound())
                continue;
            bool matched = false;
            for (const auto &m : driver->moduleDeviceTable()) {
                if (m.vendorId == fn.vendorId &&
                    m.deviceId == fn.deviceId) {
                    matched = true;
                    break;
                }
            }
            if (matched) {
                driver->probe(*this, fn);
                break; // the function is claimed
            }
        }
    }
}

void
Kernel::registerIrqHandler(unsigned line, std::function<void()> fn)
{
    gic_.registerHandler(line, [this, fn = std::move(fn)] {
        ++irqsHandled_;
        fn();
    });
}

void
Kernel::defer(Tick delay, std::function<void()> fn)
{
    auto *ev = new OneShotEvent(std::move(fn));
    eventq().schedule(ev, curTick() + delay);
}

} // namespace pciesim
