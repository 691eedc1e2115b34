#include "ide_disk.hh"

#include "pci/config_regs.hh"
#include "sim/trace.hh"

namespace pciesim
{

namespace
{

PciDeviceParams
makeDeviceParams(const IdeDiskParams &params)
{
    PciDeviceParams p;
    p.vendorId = cfg::vendorIntel;
    p.deviceId = cfg::deviceIdeCtrl;
    p.classCode = cfg::classStorageIde;
    p.interruptPin = 1;
    p.pioLatency = params.pioLatency;
    // BAR0 command block, BAR1 control block, BAR4 bus-master DMA;
    // BAR2/3 (secondary channel) unimplemented.
    p.bars = {BarSpec{16, true}, BarSpec{16, true}, BarSpec{},
              BarSpec{}, BarSpec{16, true}, BarSpec{}};
    return p;
}

} // namespace

IdeDisk::IdeDisk(Simulation &sim, const std::string &name,
                 const IdeDiskParams &params)
    : PciDevice(sim, name, makeDeviceParams(params)),
      diskParams_(params),
      mediaEvent_(this, name + ".mediaEvent"),
      chunkGapEvent_(this, name + ".chunkGapEvent"),
      unplugEvent_(this, name + ".unplugEvent"),
      replugEvent_(this, name + ".replugEvent")
{
    DmaEngineParams ep;
    ep.postedWrites = params.postedWrites;
    ep.completionTimeout = params.dmaCompletionTimeout;
    engine_ = std::make_unique<DmaEngine>(*this, dmaPort(),
                                          name + ".dma", ep);
}

IdeDisk::~IdeDisk() = default;

void
IdeDisk::init()
{
    PciDevice::init();
    auto &reg = statsRegistry();
    reg.add(name(), "commands", &commands_, "DMA commands completed");
    reg.add(name(), "dmaBytes", &dmaBytes_, "payload bytes moved");
    reg.add(name(), "chunks", &chunks_, "4KB chunks transferred");
    reg.add(name(), "activeTicks", &activeTicks_,
            "ticks spent actively transferring");
    // Registered only when the unplug script is armed so fault-free
    // stats dumps stay bit-identical.
    if (diskParams_.unplugAtChunk > 0) {
        reg.add(name(), "unplugs", &unplugs_,
                "scripted surprise removals");
    }
    fatalIf(!dmaPort().isBound(),
            "disk '", name(), "' DMA port unbound");
}

std::uint64_t
IdeDisk::readReg(unsigned bar, Addr offset, unsigned size)
{
    (void)size;
    // A surprise-removed device terminates reads with all-ones
    // (master abort), the pattern drivers use to detect removal.
    if (dead_)
        return ~0ULL;
    if (bar == ide::barCmd) {
        switch (offset) {
          case ide::regError:
            return error_;
          case ide::regSectorCount:
            return sectorCount_;
          case ide::regLbaLow:
            return lba_ & 0xff;
          case ide::regLbaMid:
            return (lba_ >> 8) & 0xff;
          case ide::regLbaHigh:
            return (lba_ >> 16) & 0xff;
          case ide::regDevice:
            return device_;
          case ide::regCommand:
            // Reading the status register clears the interrupt.
            lowerIntx();
            return status_;
          default:
            return 0;
        }
    }
    if (bar == ide::barCtrl) {
        if (offset == ide::regAltStatus)
            return status_; // without clearing the interrupt
        return 0;
    }
    if (bar == ide::barBmdma) {
        switch (offset) {
          case ide::regBmCommand:
            return bmCommand_;
          case ide::regBmStatus:
            return bmStatus_;
          case ide::regBmPrdAddr:
            return prdAddr_;
          default:
            return 0;
        }
    }
    return 0;
}

void
IdeDisk::writeReg(unsigned bar, Addr offset, unsigned size,
                  std::uint64_t value)
{
    (void)size;
    if (dead_)
        return;
    if (bar == ide::barCmd) {
        switch (offset) {
          case ide::regSectorCount:
            sectorCount_ = value & 0xff;
            break;
          case ide::regLbaLow:
            lba_ = (lba_ & 0xffff00) | (value & 0xff);
            break;
          case ide::regLbaMid:
            lba_ = (lba_ & 0xff00ff) | ((value & 0xff) << 8);
            break;
          case ide::regLbaHigh:
            lba_ = (lba_ & 0x00ffff) | ((value & 0xff) << 16);
            break;
          case ide::regDevice:
            device_ = value & 0xff;
            break;
          case ide::regCommand:
            panicIf(state_ != State::Idle,
                    "disk '", name(), "' command while busy");
            pendingCommand_ = value & 0xff;
            panicIf(pendingCommand_ != ide::cmdReadDma &&
                    pendingCommand_ != ide::cmdWriteDma,
                    "disk '", name(), "' unsupported ATA command 0x",
                    pendingCommand_);
            commandPending_ = true;
            status_ |= ide::statusBsy;
            maybeStartCommand();
            break;
          default:
            break;
        }
        return;
    }
    if (bar == ide::barBmdma) {
        switch (offset) {
          case ide::regBmCommand:
            bmCommand_ = value & 0xff;
            if (bmCommand_ & ide::bmStart) {
                bmStatus_ |= ide::bmStatusActive;
                maybeStartCommand();
            }
            break;
          case ide::regBmStatus:
            // Write-one-to-clear interrupt / error bits.
            bmStatus_ &= ~(value &
                           (ide::bmStatusIntr | ide::bmStatusErr));
            break;
          case ide::regBmPrdAddr:
            prdAddr_ = value & 0xffffffff;
            break;
          default:
            break;
        }
    }
}

void
IdeDisk::maybeStartCommand()
{
    if (state_ != State::Idle || !commandPending_ ||
        !(bmCommand_ & ide::bmStart)) {
        return;
    }
    panicIf(!busMaster(), "disk '", name(),
            "' DMA started without bus mastering enabled");

    commandPending_ = false;
    state_ = State::MediaAccess;
    // Constant media access latency, as in the gem5 IDE disk.
    schedule(mediaEvent_, diskParams_.mediaLatency);
}

void
IdeDisk::mediaAccessDone()
{
    // Fetch the PRD entry describing the host buffer (8 bytes:
    // 32-bit address, 16-bit byte count, 16-bit flags).
    state_ = State::ReadPrd;
    engine_->startRead(
        prdAddr_, 8, [this] { prdReadDone(); },
        [this](const PacketPtr &pkt) {
            if (pkt->hasData()) {
                std::uint64_t v = pkt->get<std::uint64_t>();
                bufferAddr_ = v & 0xffffffff;
                std::uint32_t count = (v >> 32) & 0xffff;
                prdByteCount_ = count == 0 ? 0x10000 : count;
            }
        });
}

void
IdeDisk::prdReadDone()
{
    unsigned sectors = sectorCount_ == 0 ? ide::maxSectorsPerCommand
                                         : sectorCount_;
    bytesRemaining_ = static_cast<std::uint64_t>(sectors) *
                      ide::sectorSize;
    panicIf(bufferAddr_ == 0,
            "disk '", name(), "' PRD entry has null buffer address");
    panicIf(prdByteCount_ < bytesRemaining_,
            "disk '", name(), "' PRD smaller than the command (",
            prdByteCount_, " < ", bytesRemaining_, ")");

    nextBufferAddr_ = bufferAddr_;
    state_ = State::Transfer;
    transferStart_ = curTick();
    startNextChunk();
}

void
IdeDisk::startNextChunk()
{
    std::uint64_t len = std::min<std::uint64_t>(
        diskParams_.chunkSize, bytesRemaining_);
    panicIf(len == 0, "disk '", name(), "' zero-length chunk");

    bool to_memory = pendingCommandIsRead();
    if (to_memory) {
        engine_->startWrite(nextBufferAddr_, len,
                            [this] { chunkDone(); });
    } else {
        engine_->startRead(nextBufferAddr_, len,
                           [this] { chunkDone(); });
    }
    nextBufferAddr_ += len;
    bytesRemaining_ -= len;
    dmaBytes_ += len;

    // Scripted surprise hot-unplug: one media latency into the Nth
    // chunk, i.e. with DMA packets genuinely in flight.
    if (diskParams_.unplugAtChunk > 0 && !unplugFired_ &&
        chunks_.value() + 1 == diskParams_.unplugAtChunk) {
        unplugFired_ = true;
        schedule(unplugEvent_, diskParams_.mediaLatency);
    }
}

void
IdeDisk::surpriseUnplug()
{
    ++unplugs_;
    TRACE_MSG(trace::Flag::Dma, curTick(), name(),
              "surprise hot-unplug mid-DMA");
    inform("disk '", name(), "': surprise hot-unplug at tick ",
           curTick());
    dead_ = true;
    engine_->cancel();
    if (mediaEvent_.scheduled())
        eventq().deschedule(&mediaEvent_);
    if (chunkGapEvent_.scheduled())
        eventq().deschedule(&chunkGapEvent_);
    if (intxAsserted())
        lowerIntx();
    state_ = State::Idle;
    commandPending_ = false;
    bytesRemaining_ = 0;
    setPresent(false);
    if (unplugHook_)
        unplugHook_();
    schedule(replugEvent_, diskParams_.replugDelay);
}

void
IdeDisk::replugged()
{
    TRACE_MSG(trace::Flag::Dma, curTick(), name(),
              "device re-seated, power-on reset");
    inform("disk '", name(), "': re-seated at tick ", curTick());
    dead_ = false;
    setPresent(true);
    resetRegisterFile();
}

void
IdeDisk::resetRegisterFile()
{
    status_ = ide::statusDrdy;
    error_ = 0;
    sectorCount_ = 0;
    lba_ = 0;
    device_ = 0;
    bmCommand_ = 0;
    bmStatus_ = 0;
    prdAddr_ = 0;
    state_ = State::Idle;
    commandPending_ = false;
    pendingCommand_ = 0;
    bufferAddr_ = 0;
    prdByteCount_ = 0;
    bytesRemaining_ = 0;
    nextBufferAddr_ = 0;
}

void
IdeDisk::functionLevelReset()
{
    PciDevice::functionLevelReset();
    engine_->cancel();
    if (mediaEvent_.scheduled())
        eventq().deschedule(&mediaEvent_);
    if (chunkGapEvent_.scheduled())
        eventq().deschedule(&chunkGapEvent_);
    if (intxAsserted())
        lowerIntx();
    resetRegisterFile();
}

void
IdeDisk::chunkDone()
{
    ++chunks_;
    if (bytesRemaining_ > 0) {
        // The response barrier has completed; the next chunk starts
        // after the fixed per-chunk processing gap.
        schedule(chunkGapEvent_, diskParams_.chunkOverhead);
    } else {
        commandComplete();
    }
}

void
IdeDisk::commandComplete()
{
    activeTicks_ += static_cast<double>(curTick() - transferStart_);
    ++commands_;
    state_ = State::Idle;
    status_ &= ~ide::statusBsy;
    bmStatus_ &= ~ide::bmStatusActive;
    bmStatus_ |= ide::bmStatusIntr;
    raiseIntx();
}

bool
IdeDisk::recvDmaResp(PacketPtr pkt)
{
    // Straggler completions owed by a transfer a surprise removal
    // abandoned; the device is gone, so they fall on the floor.
    if (dead_)
        return true;
    return engine_->recvResp(pkt);
}

void
IdeDisk::recvDmaRetry()
{
    if (dead_)
        return;
    engine_->recvRetry();
}

} // namespace pciesim
