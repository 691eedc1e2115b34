/**
 * @file
 * Deterministic fault injection for one direction of a PCI-Express
 * link. Two fault sources compose:
 *
 *  - A per-lane bit-error rate, converted to an LCRC-failure
 *    probability per packet from its wire size in encoded bits
 *    (p = 1 - (1 - BER)^bits), drawn from a seeded per-object PRNG
 *    (sim/rng.hh) so runs are bit-reproducible.
 *  - Scripted faults for unit tests: "corrupt the Nth TLP of this
 *    direction" and "corrupt everything inside tick window [a, b)".
 *
 * A corrupted packet is not dropped on the wire: it arrives, fails
 * the receiver's LCRC check, and is discarded there, which is what
 * drives the NAK / replay-timer recovery paths (pcie_link.cc).
 */

#ifndef PCIESIM_PCIE_FAULT_INJECTOR_HH
#define PCIESIM_PCIE_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "pcie/pcie_pkt.hh"
#include "pcie/pcie_timing.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace pciesim
{

/** Fault configuration for one link (both directions share it). */
struct FaultInjectorParams
{
    /** Per-lane bit-error rate; 0 disables random corruption. */
    double bitErrorRate = 0.0;
    /** PRNG seed; each direction derives its own stream from it. */
    std::uint64_t seed = 1;
    /** Scripted: corrupt these TLPs of a direction (1 = first). */
    std::vector<std::uint64_t> corruptTlpNumbers;
    /** Scripted: corrupt these DLLPs of a direction (1 = first). */
    std::vector<std::uint64_t> corruptDllpNumbers;
    /** @{ Scripted: corrupt every packet sent in [begin, end). */
    Tick corruptWindowBegin = 0;
    Tick corruptWindowEnd = 0;
    /** @} */

    /** Whether any fault source is configured. */
    bool
    enabled() const
    {
        return bitErrorRate > 0.0 || !corruptTlpNumbers.empty() ||
               !corruptDllpNumbers.empty() ||
               corruptWindowEnd > corruptWindowBegin;
    }
};

/**
 * The fault state of one wire direction: counts the packets that
 * enter it and decides, deterministically, which ones to corrupt.
 */
class FaultInjector
{
  public:
    /**
     * @param salt Mixed into the seed so the two directions of a
     *             link draw independent streams.
     */
    FaultInjector(const FaultInjectorParams &params, PcieGen gen,
                  std::uint64_t salt);

    bool enabled() const { return params_.enabled(); }

    /**
     * Account for @p pkt entering the wire at @p now and decide
     * whether its LCRC is corrupted in transit. Advances the TLP /
     * DLLP ordinals and (when a bit-error rate is set) the PRNG.
     */
    bool corruptsNext(const PciePkt &pkt, Tick now);

    /** @{ Introspection for tests and benches. */
    std::uint64_t tlpsSeen() const { return tlpsSeen_; }
    std::uint64_t dllpsSeen() const { return dllpsSeen_; }
    std::uint64_t faultsInjected() const { return injected_; }
    /** @} */

    /** LCRC-failure probability of a packet of @p symbols bytes. */
    double corruptProbability(unsigned symbols) const;

  private:
    /** The last packet size seen and its corruptProbability(). */
    struct LastProbability
    {
        unsigned symbols = ~0u;
        double p = 0.0;
    };

    FaultInjectorParams params_;
    /** Encoded wire bits per symbol for the BER conversion. */
    double bitsPerSymbol_;
    /** Per packet kind (index: isTlp()): most packets of a kind
     *  share a size, so log1p/expm1 run once per size change. */
    LastProbability lastProbability_[2];
    Rng rng_;
    std::uint64_t tlpsSeen_ = 0;
    std::uint64_t dllpsSeen_ = 0;
    std::uint64_t injected_ = 0;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_FAULT_INJECTOR_HH
