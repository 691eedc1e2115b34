#include "fault_injector.hh"

#include <algorithm>
#include <cmath>

namespace pciesim
{

FaultInjector::FaultInjector(const FaultInjectorParams &params,
                             PcieGen gen, std::uint64_t salt)
    : params_(params), bitsPerSymbol_(genInfo(gen).bitsPerByte),
      // A multiplicative salt keeps nearby seeds' streams apart;
      // splitmix64 inside Rng scrambles the rest.
      rng_(params.seed + salt * 0x9e3779b97f4a7c15ULL)
{}

double
FaultInjector::corruptProbability(unsigned symbols) const
{
    if (params_.bitErrorRate <= 0.0)
        return 0.0;
    if (params_.bitErrorRate >= 1.0)
        return 1.0;
    // p = 1 - (1 - BER)^bits, computed in log space so tiny rates
    // (1e-12 and below) do not round to zero.
    double bits = static_cast<double>(symbols) * bitsPerSymbol_;
    return -std::expm1(bits * std::log1p(-params_.bitErrorRate));
}

bool
FaultInjector::corruptsNext(const PciePkt &pkt, Tick now)
{
    std::uint64_t ordinal;
    const std::vector<std::uint64_t> *scripted;
    if (pkt.isTlp()) {
        ordinal = ++tlpsSeen_;
        scripted = &params_.corruptTlpNumbers;
    } else {
        ordinal = ++dllpsSeen_;
        scripted = &params_.corruptDllpNumbers;
    }

    bool corrupt = std::find(scripted->begin(), scripted->end(),
                             ordinal) != scripted->end();
    if (now >= params_.corruptWindowBegin &&
        now < params_.corruptWindowEnd) {
        corrupt = true;
    }
    // Draw for every packet whenever a bit-error rate is set: the
    // stream position then depends only on the packet count, not on
    // which packets the scripted faults already hit.
    if (params_.bitErrorRate > 0.0) {
        LastProbability &last = lastProbability_[pkt.isTlp()];
        if (pkt.wireSymbols() != last.symbols) {
            last.symbols = pkt.wireSymbols();
            last.p = corruptProbability(last.symbols);
        }
        if (rng_.bernoulli(last.p))
            corrupt = true;
    }

    if (corrupt)
        ++injected_;
    return corrupt;
}

} // namespace pciesim
