#include "simple_memory.hh"

#include <cmath>

namespace pciesim
{

class SimpleMemory::MemoryPort : public SlavePort
{
  public:
    MemoryPort(SimpleMemory &mem, const std::string &name)
        : SlavePort(name), mem_(mem)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return mem_.access(pkt);
    }

    void
    recvRespRetry() override
    {
        mem_.respQueue_->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        return {mem_.params_.range};
    }

  private:
    SimpleMemory &mem_;
};

SimpleMemory::SimpleMemory(Simulation &sim, const std::string &name,
                           const SimpleMemoryParams &params)
    : SimObject(sim, name), params_(params)
{
    port_ = std::make_unique<MemoryPort>(*this, name + ".port");
    respQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".respQueue",
        [this](const PacketPtr &p) {
            return port_->sendTimingResp(p);
        },
        params_.queueCapacity);
    respQueue_->setOnSpaceFreed([this] {
        if (wantRetry_ && !respQueue_->full()) {
            wantRetry_ = false;
            port_->sendRetryReq();
        }
    });
}

SimpleMemory::~SimpleMemory() = default;

SlavePort &
SimpleMemory::port()
{
    return *port_;
}

void
SimpleMemory::init()
{
    statsRegistry().add(name(), "reads", &reads_, "read requests");
    statsRegistry().add(name(), "writes", &writes_, "write requests");
    statsRegistry().add(name(), "refusals", &refusals_,
                        "requests refused (queue full)");
    fatalIf(!port_->isBound(), "memory '", name(), "' port unbound");
    fatalIf(params_.bytesPerTick <= 0.0,
            "memory '", name(), "' needs positive bandwidth");
}

bool
SimpleMemory::access(const PacketPtr &pkt)
{
    panicIf(!params_.range.contains(pkt->addr()),
            "memory '", name(), "' got out-of-range ", pkt->toString());

    if (respQueue_->full()) {
        ++refusals_;
        wantRetry_ = true;
        return false;
    }

    if (pkt->isRead())
        ++reads_;
    else
        ++writes_;

    // Functional data handling: store write payloads when carried.
    if (params_.functional && pkt->isWrite() && pkt->hasData()) {
        for (std::size_t i = 0; i < pkt->dataSize(); ++i)
            store_[pkt->addr() + i] = pkt->data()[i];
    }

    // Bandwidth regulation: the data bus is occupied for
    // size / bytesPerTick ticks.
    Tick occupancy = static_cast<Tick>(
        std::ceil(static_cast<double>(pkt->size()) /
                  params_.bytesPerTick));
    Tick start = std::max(curTick(), bankFreeAt_);
    bankFreeAt_ = start + occupancy;

    Tick ready = start + occupancy + params_.latency;

    if (pkt->needsResponse()) {
        // Serve reads with functional data when available.
        if (params_.functional && pkt->isRead()) {
            std::vector<std::uint8_t> bytes(pkt->size(), 0);
            bool any = false;
            for (unsigned i = 0; i < pkt->size(); ++i) {
                auto it = store_.find(pkt->addr() + i);
                if (it != store_.end()) {
                    bytes[i] = it->second;
                    any = true;
                }
            }
            pkt->makeResponse();
            if (any)
                pkt->setData(bytes.data(), pkt->size());
        } else {
            pkt->makeResponse();
        }
        respQueue_->push(pkt, ready);
    }
    return true;
}

std::uint8_t
SimpleMemory::readByte(Addr a) const
{
    auto it = store_.find(a);
    return it == store_.end() ? 0 : it->second;
}

void
SimpleMemory::writeByte(Addr a, std::uint8_t v)
{
    store_[a] = v;
}

} // namespace pciesim
