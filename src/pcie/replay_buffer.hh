/**
 * @file
 * The replay buffer of a PCI-Express link interface (paper
 * Sec. V-C): a bounded FIFO of transmitted-but-unacknowledged TLPs
 * in sequence-number order. A full replay buffer halts TLP
 * transmission (source throttling); an ACK purges every entry with
 * a sequence number at or below the acknowledged one.
 */

#ifndef PCIESIM_PCIE_REPLAY_BUFFER_HH
#define PCIESIM_PCIE_REPLAY_BUFFER_HH

#include "pcie/pcie_pkt.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/ring.hh"

namespace pciesim
{

/**
 * Bounded FIFO of transmitted-but-unacknowledged TLPs. In audit
 * builds every mutation re-verifies strict sequence-number
 * monotonicity and the capacity bound (sim/invariant.hh).
 */
class ReplayBuffer
{
  public:
    /** @param capacity Maximum resident TLPs (paper sweeps 1..4). */
    explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity)
    {
        panicIf(capacity == 0, "replay buffer needs capacity >= 1");
    }

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Deepest occupancy ever reached (a congestion fingerprint:
     *  high water at capacity means source throttling engaged). */
    std::size_t highWater() const { return highWater_; }

    /** Record a transmitted TLP; entries stay in seq order. */
    void
    push(const PciePkt &pkt)
    {
        panicIf(!pkt.isTlp(), "only TLPs enter the replay buffer");
        panicIf(full(), "replay buffer overflow");
        panicIf(!entries_.empty() &&
                !seqLt(entries_.back().seq(), pkt.seq()),
                "replay buffer sequence numbers must increase");
        entries_.push_back(pkt);
        if (entries_.size() > highWater_)
            highWater_ = entries_.size();
        auditSeqOrder();
    }

    /**
     * Process an ACK: drop all TLPs at or (modularly) before
     * @p acked in the 12-bit sequence order.
     * @return number of purged entries.
     */
    std::size_t
    ack(SeqNum acked)
    {
        std::size_t purged = 0;
        while (!entries_.empty() &&
               seqLe(entries_.front().seq(), acked)) {
            entries_.pop_front();
            ++purged;
        }
        auditSeqOrder();
        return purged;
    }

    /**
     * ack() variant invoking @p on_purge with each purged entry
     * before it is dropped — the link interface samples its
     * ACK-latency histogram from the entries' inject ticks.
     */
    template <typename Fn>
    std::size_t
    ack(SeqNum acked, Fn &&on_purge)
    {
        std::size_t purged = 0;
        while (!entries_.empty() &&
               seqLe(entries_.front().seq(), acked)) {
            on_purge(entries_.front());
            entries_.pop_front();
            ++purged;
        }
        auditSeqOrder();
        return purged;
    }

    /** Iterate resident TLPs in sequence order (for replay). */
    const Ring<PciePkt> &entries() const { return entries_; }

    PCIESIM_AUDIT_ONLY(
    /**
     * Test hook (audit builds only): rewrite entry @p i with
     * sequence number @p seq and re-run the monotonicity audit, so
     * invariant_test can prove the audit fires on corrupted state.
     */
    void
    corruptSeqForAuditTest(std::size_t i, SeqNum seq)
    {
        entries_[i] = PciePkt::makeTlp(entries_[i].tlp(), seq);
        auditSeqOrder();
    })

  private:
    /** Audit builds: full monotonicity and capacity sweep. */
    void
    auditSeqOrder() const
    {
#ifdef PCIESIM_ENABLE_AUDIT
        PCIESIM_AUDIT(entries_.size() <= capacity_,
                      "replay buffer holds ", entries_.size(),
                      " TLPs, capacity ", capacity_);
        for (std::size_t i = 1; i < entries_.size(); ++i) {
            PCIESIM_AUDIT(seqLt(entries_[i - 1].seq(),
                                entries_[i].seq()),
                          "replay buffer seq order broken at entry ",
                          i, " (", entries_[i - 1].seq(), " then ",
                          entries_[i].seq(), ")");
        }
#endif
    }

    std::size_t capacity_;
    Ring<PciePkt> entries_;
    std::size_t highWater_ = 0;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_REPLAY_BUFFER_HH
