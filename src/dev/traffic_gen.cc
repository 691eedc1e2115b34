#include "traffic_gen.hh"

#include "pci/config_regs.hh"

namespace pciesim
{

namespace
{

PciDeviceParams
makeDeviceParams(const TrafficGenParams &params)
{
    PciDeviceParams p;
    p.vendorId = cfg::vendorIntel;
    p.deviceId = tgen::deviceId;
    p.classCode = 0x0b4000; // co-processor
    p.interruptPin = 1;
    p.pioLatency = params.pioLatency;
    p.bars = {BarSpec{4096, false}};
    return p;
}

} // namespace

TrafficGen::TrafficGen(Simulation &sim, const std::string &name,
                       const TrafficGenParams &params)
    : PciDevice(sim, name, makeDeviceParams(params)),
      genParams_(params),
      gapEvent_(this, name + ".gapEvent")
{
    DmaEngineParams ep;
    ep.postedWrites = params.postedWrites;
    engine_ = std::make_unique<DmaEngine>(*this, dmaPort(),
                                          name + ".dma", ep);
}

TrafficGen::~TrafficGen() = default;

void
TrafficGen::init()
{
    PciDevice::init();
    statsRegistry().add(name(), "bytes", &bytes_,
                        "DMA payload bytes moved");
    statsRegistry().add(name(), "bursts", &bursts_,
                        "bursts completed");
    fatalIf(!dmaPort().isBound(),
            "traffic generator '", name(), "' DMA port unbound");
}

std::uint64_t
TrafficGen::readReg(unsigned bar, Addr offset, unsigned size)
{
    (void)bar;
    (void)size;
    switch (offset) {
      case tgen::regCtrl:
        return running_ ? tgen::ctrlStart : 0;
      case tgen::regAddrLo:
        return addrLo_;
      case tgen::regAddrHi:
        return addrHi_;
      case tgen::regLength:
        return length_;
      case tgen::regCount:
        return count_;
      case tgen::regMode:
        return mode_;
      case tgen::regDone:
        lowerIntx();
        return done_ & 0xffffffff;
      default:
        return 0;
    }
}

void
TrafficGen::writeReg(unsigned bar, Addr offset, unsigned size,
                     std::uint64_t value)
{
    (void)bar;
    (void)size;
    std::uint32_t v = static_cast<std::uint32_t>(value);
    switch (offset) {
      case tgen::regCtrl:
        if (v & tgen::ctrlStop)
            stopRequested_ = true;
        if ((v & tgen::ctrlStart) && !running_)
            startRun();
        break;
      case tgen::regAddrLo:
        addrLo_ = v;
        break;
      case tgen::regAddrHi:
        addrHi_ = v;
        break;
      case tgen::regLength:
        length_ = v;
        break;
      case tgen::regCount:
        count_ = v;
        break;
      case tgen::regMode:
        mode_ = v;
        break;
      default:
        break;
    }
}

void
TrafficGen::directStart(Addr target, std::uint32_t burst_bytes,
                        std::uint32_t bursts, bool read_mode)
{
    configWrite(cfg::command, 2,
                cfg::cmdMemEnable | cfg::cmdBusMaster);
    addrLo_ = static_cast<std::uint32_t>(target & 0xffffffff);
    addrHi_ = static_cast<std::uint32_t>(target >> 32);
    length_ = burst_bytes;
    count_ = bursts;
    mode_ = read_mode ? 1 : 0;
    if (!running_)
        startRun();
}

void
TrafficGen::startRun()
{
    panicIf(length_ == 0, "traffic generator '", name(),
            "' started with zero burst length");
    panicIf(!busMaster(), "traffic generator '", name(),
            "' started without bus mastering enabled");
    running_ = true;
    stopRequested_ = false;
    done_ = 0;
    startTick_ = curTick();
    nextBurst();
}

void
TrafficGen::nextBurst()
{
    if (stopRequested_ || (count_ != 0 && done_ >= count_)) {
        running_ = false;
        lastDoneTick_ = curTick();
        raiseIntx();
        return;
    }
    Addr target = (static_cast<Addr>(addrHi_) << 32) | addrLo_;
    if (mode_ == 0)
        engine_->startWrite(target, length_, [this] { burstDone(); });
    else
        engine_->startRead(target, length_, [this] { burstDone(); });
}

void
TrafficGen::burstDone()
{
    ++done_;
    ++bursts_;
    bytes_ += length_;
    lastDoneTick_ = curTick();
    if (genParams_.interBurstGap == 0) {
        nextBurst();
    } else if (!gapEvent_.scheduled()) {
        schedule(gapEvent_, genParams_.interBurstGap);
    }
}

bool
TrafficGen::recvDmaResp(PacketPtr pkt)
{
    return engine_->recvResp(pkt);
}

void
TrafficGen::recvDmaRetry()
{
    engine_->recvRetry();
}

} // namespace pciesim
