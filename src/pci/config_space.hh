/**
 * @file
 * Backing store for a function's 4 KB configuration space with
 * per-bit write masks. Only the prefix that holds registers is
 * stored; the rest of the space reads as zero.
 */

#ifndef PCIESIM_PCI_CONFIG_SPACE_HH
#define PCIESIM_PCI_CONFIG_SPACE_HH

#include <array>
#include <cstdint>

#include "pci/config_regs.hh"
#include "sim/invariant.hh"

namespace pciesim
{

/**
 * A 4 KB configuration space (paper Fig. 4: R1 + R2 + R3).
 *
 * Software accesses go through read()/write(); write() honours the
 * per-bit write mask so read-only registers keep their hardware
 * values. The owning device initialises registers and masks with the
 * raw init*()/mask*() methods.
 *
 * Every register the model defines lies below storedSize (R1, R2
 * and the AER extended capability at the start of R3), so only
 * that prefix is stored. Software reads above it return 0 and
 * writes there are dropped, as if the bytes were read-only zeros;
 * init*()/mask*() above it panic.
 */
class ConfigSpace
{
  public:
    /** Bytes backed by storage: R1 + R2 + the AER capability. */
    static constexpr unsigned storedSize =
        cfg::extendedCapBase + cfg::aerCapSize;

    ConfigSpace();

    /** Software read of 1, 2, or 4 bytes. */
    std::uint32_t read(unsigned offset, unsigned size) const;

    /** Software write of 1, 2, or 4 bytes, honouring write masks. */
    void write(unsigned offset, unsigned size, std::uint32_t value);

    /** @{ Raw hardware-side initialisation (ignores write masks). */
    void init8(unsigned offset, std::uint8_t v);
    void init16(unsigned offset, std::uint16_t v);
    void init32(unsigned offset, std::uint32_t v);
    /** Initialise a 24-bit field (class code). */
    void init24(unsigned offset, std::uint32_t v);
    /** @} */

    /** @{ Declare bits software may write (default: none). */
    void mask8(unsigned offset, std::uint8_t writable);
    void mask16(unsigned offset, std::uint16_t writable);
    void mask32(unsigned offset, std::uint32_t writable);
    /** @} */

    /** @{
     * Hardware-side raw readback: direct little-endian byte reads
     * for the routing hot path (bridge windows and command bits are
     * read on every forwarding decision). Offsets are the model's
     * own register constants, so the bounds and alignment check of
     * software accesses is an audit here.
     */
    std::uint8_t
    raw8(unsigned offset) const
    {
        PCIESIM_AUDIT(offset < data_.size(),
                      "bad raw8 config read at offset ", offset);
        return data_[offset];
    }

    std::uint16_t
    raw16(unsigned offset) const
    {
        PCIESIM_AUDIT(offset % 2 == 0 && offset + 2 <= data_.size(),
                      "bad raw16 config read at offset ", offset);
        return static_cast<std::uint16_t>(
            data_[offset] | (data_[offset + 1] << 8));
    }

    std::uint32_t
    raw32(unsigned offset) const
    {
        PCIESIM_AUDIT(offset % 4 == 0 && offset + 4 <= data_.size(),
                      "bad raw32 config read at offset ", offset);
        return static_cast<std::uint32_t>(data_[offset]) |
               (static_cast<std::uint32_t>(data_[offset + 1]) << 8) |
               (static_cast<std::uint32_t>(data_[offset + 2]) << 16) |
               (static_cast<std::uint32_t>(data_[offset + 3]) << 24);
    }
    /** @} */

    /** Hardware-side update of a register (e.g. status bits). */
    void update16(unsigned offset, std::uint16_t v) { init16(offset, v); }

  private:
    void checkAccess(unsigned offset, unsigned size) const;
    /** Panic unless [offset, offset + size) is stored. */
    void checkStored(unsigned offset, unsigned size) const;

    // An aligned access of at most 4 bytes lies wholly inside or
    // wholly outside the stored prefix.
    static_assert(storedSize % 4 == 0);

    std::array<std::uint8_t, storedSize> data_{};
    std::array<std::uint8_t, storedSize> wmask_{};
};

} // namespace pciesim

#endif // PCIESIM_PCI_CONFIG_SPACE_HH
