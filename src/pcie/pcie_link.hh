/**
 * @file
 * The PCI-Express link model (paper Sec. V-C, Fig. 8): two
 * unidirectional serializing links plus a link interface at each
 * end implementing a simplified data link layer - sequence numbers,
 * a bounded replay buffer, ACK DLLPs, a replay timer with the
 * spec timeout formula, and an ACK timer at 1/3 of it.
 *
 * Transmission priority (paper Sec. V-C):
 *   1. ACK DLLPs   2. retransmitted TLPs   3. new TLPs.
 *
 * Backpressure semantics: an interface accepts a TLP from its
 * external ports only while its replay buffer has room (source
 * throttling); a TLP whose delivery is refused by the far end's
 * connected port is dropped there and recovered by the sender's
 * replay timeout - exactly the mechanism behind the paper's x8
 * congestion results.
 *
 * Fault recovery (DESIGN.md §7): with fault injection (or
 * enableNak) configured, the interfaces additionally run the spec
 * ACK/NAK machinery - LCRC-failed and out-of-sequence TLPs are
 * NAKed (one outstanding NAK per loss window), a NAK triggers an
 * immediate replay, and REPLAY_NUM replays of the same TLP bring
 * the link down for a retrain. With faults disabled the legacy
 * replay-timeout-only model above is bit-identical.
 */

#ifndef PCIESIM_PCIE_PCIE_LINK_HH
#define PCIESIM_PCIE_PCIE_LINK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "pci/aer.hh"
#include "pcie/fault_injector.hh"
#include "pcie/pcie_pkt.hh"
#include "pcie/pcie_timing.hh"
#include "pcie/replay_buffer.hh"
#include "sim/invariant.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace pciesim
{

/** Configuration for a PcieLink. */
struct PcieLinkParams
{
    PcieGen gen = PcieGen::Gen2;
    /** Number of lanes (1..32). */
    unsigned width = 1;
    /** Signal propagation delay per direction. */
    Tick propagationDelay = nanoseconds(1);
    /** MaxPayloadSize used in the replay-timer formula; the paper
     *  sets it to the cache-line size. */
    unsigned maxPayload = 64;
    /** Replay buffer capacity per interface (paper default 4). */
    std::size_t replayBufferSize = 4;
    /** Send ACKs immediately instead of on the ACK timer. */
    bool ackImmediate = false;
    /**
     * Multiplier on the spec replay-timeout formula. The formula's
     * InternalDelay term (receiver/transmitter internal processing)
     * is zero in the paper's model; real devices add hundreds of
     * symbol times. A scale > 1 approximates that without a
     * separate InternalDelay parameter.
     */
    double replayTimeoutScale = 1.0;
    /** Fault injection applied to both directions of the link. */
    FaultInjectorParams faults;
    /**
     * Run the NAK/retrain recovery machinery even with no faults
     * configured. It is forced on whenever faults are enabled; off
     * by default so the fault-free model recovers by replay
     * timeout alone, unchanged.
     */
    bool enableNak = false;
    /** Replays of the same TLP that trigger a link retrain. */
    unsigned replayNumThreshold = 4;
    /** Time the link stays down during a retrain. */
    Tick retrainLatency = microseconds(1);
    /**
     * Link errors within degradeWindow that trigger a downtrain —
     * one speed Gen at a time, then width halving — so a noisy link
     * degrades gracefully instead of livelocking in replay.
     * 0 disables link degradation (the default; bit-identical to
     * the pre-degradation model).
     */
    unsigned degradeThreshold = 0;
    /** Window over which errors count toward degradation. */
    Tick degradeWindow = microseconds(100);
    /**
     * Base back-off before an upconfigure attempt restores one
     * ladder step; doubled per consecutive degradation and jittered
     * by a seeded RNG so repeated attempts desynchronise.
     */
    Tick upconfigureDelay = milliseconds(1);
};

/**
 * Error/recovery counters of one link interface, or (summed) of a
 * whole link - the uniform accessor integration tests and benches
 * use to query any link of a topology.
 */
struct LinkErrorStats
{
    std::uint64_t txTlps = 0;
    std::uint64_t replayedTlps = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t deliveryRefusals = 0;
    std::uint64_t acceptRefusals = 0;
    std::uint64_t duplicateTlps = 0;
    std::uint64_t outOfOrderDrops = 0;
    std::uint64_t crcErrorsTlp = 0;
    std::uint64_t crcErrorsDllp = 0;
    std::uint64_t naksSent = 0;
    std::uint64_t naksReceived = 0;
    std::uint64_t retrains = 0;
    std::uint64_t degradations = 0;
    std::uint64_t upconfigures = 0;

    LinkErrorStats &
    operator+=(const LinkErrorStats &o)
    {
        txTlps += o.txTlps;
        replayedTlps += o.replayedTlps;
        timeouts += o.timeouts;
        deliveryRefusals += o.deliveryRefusals;
        acceptRefusals += o.acceptRefusals;
        duplicateTlps += o.duplicateTlps;
        outOfOrderDrops += o.outOfOrderDrops;
        crcErrorsTlp += o.crcErrorsTlp;
        crcErrorsDllp += o.crcErrorsDllp;
        naksSent += o.naksSent;
        naksReceived += o.naksReceived;
        retrains += o.retrains;
        degradations += o.degradations;
        upconfigures += o.upconfigures;
        return *this;
    }
};

class PcieLink;

/**
 * One direction of the link: serializes a PciePkt for its wire time
 * and delivers it to the sink interface after propagation.
 *
 * In a partitioned simulation the two ends can live in different
 * link domains (PcieLink::setDomains): send() then runs on the
 * source domain and delivery on the sink domain, with the in-flight
 * queue as the only shared state (guarded by a mutex on cut wires
 * only) and the delivery event posted through the engine's mailbox.
 */
class UnidirectionalLink
{
  public:
    UnidirectionalLink(PcieLink &link, const std::string &name,
                       bool toward_upstream);

    const std::string &name() const { return name_; }

    /** Bind the source (sender) and sink (receiver) domains. */
    void
    setQueues(EventQueue *src, EventQueue *sink)
    {
        srcQueue_ = src;
        sinkQueue_ = sink;
        cross_ = src != sink;
    }

    /** Earliest tick a new packet may start serializing. */
    Tick freeAt() const { return busyUntil_; }
    bool busy(Tick now) const { return busyUntil_ > now; }

    /** Accumulated wire-occupied ticks (utilization numerator). */
    Tick busyTicks() const { return busyTicks_; }

    /** Begin transmitting; panics when busy. */
    void send(const PciePkt &pkt);

    /** Attach the fault state for this direction. */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /** Retrain: every packet on the wire is lost. */
    void dropInFlight();

  private:
    void deliver();

    PcieLink &link_;
    std::string name_;
    bool towardUpstream_;
    FaultInjector *faults_ = nullptr;
    /** Sender domain (send() runs here); busyUntil_ is its state. */
    EventQueue *srcQueue_ = nullptr;
    /** Sink domain; deliverEvent_ lives in this queue. */
    EventQueue *sinkQueue_ = nullptr;
    /** The two ends live in different domains. */
    bool cross_ = false;
    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;

    /** One packet on the wire. On a cut wire the delivery event can
     *  be armed for this arrival either by the sender's mailboxed
     *  schedule-if-earlier or by the sink rearming after the
     *  previous delivery — whichever the wall clock happens to order
     *  first — so the arming key is fixed at send time and carried
     *  here, keeping the heap order a pure function of simulated
     *  history. */
    struct InFlight
    {
        Tick arrive;
        Tick keyOrder;
        std::uint64_t keyTie;
        PciePkt pkt;
    };
    Ring<InFlight> inFlight_;
    /** Guards inFlight_; taken on cut wires only. */
    std::mutex inFlightMu_;
    MemberEventWrapper<UnidirectionalLink,
                       &UnidirectionalLink::deliver> deliverEvent_;
};

/**
 * The TX + RX logic at one end of the link (Fig. 8).
 *
 * External connection points: extMaster() delivers requests into
 * the adjacent component and receives its responses; extSlave()
 * accepts requests from it and delivers responses to it.
 */
class LinkInterface
{
  public:
    LinkInterface(PcieLink &link, const std::string &name,
                  bool is_upstream);

    MasterPort &extMaster();
    SlavePort &extSlave();

    /** @{ Hooks called by the owning PcieLink. */
    void setTxLink(UnidirectionalLink *tx) { txLink_ = tx; }
    void setPeer(LinkInterface *peer) { peer_ = peer; }
    void recvFromWire(const PciePkt &pkt);
    void registerStats();
    /** @} */

    /** @{ Introspection for tests and benches. */
    std::uint64_t txTlps() const { return txTlps_.value(); }
    std::uint64_t replayedTlps() const { return replayedTlps_.value(); }
    std::uint64_t timeouts() const { return timeouts_.value(); }
    std::uint64_t deliveryRefusals() const
    {
        return deliveryRefusals_.value();
    }
    std::uint64_t crcErrorsTlp() const { return crcErrorsTlp_.value(); }
    std::uint64_t
    crcErrorsDllp() const
    {
        return crcErrorsDllp_.value();
    }
    std::uint64_t naksSent() const { return naksSent_.value(); }
    std::uint64_t naksReceived() const { return naksReceived_.value(); }
    std::uint64_t retrains() const { return retrains_.value(); }
    std::uint64_t acceptRefusals() const
    {
        return acceptRefusals_.value();
    }

    /**
     * Simulated ticks this interface spent refusing new TLPs for
     * lack of replay-buffer credit (closed intervals: first refusal
     * to the retry notification that reopened acceptance). The
     * fabric roll-up (DESIGN.md §14) sums this across links.
     */
    Tick creditStallTicks() const
    {
        return static_cast<Tick>(creditStallTicks_.value());
    }

    /** TLPs currently resident in the replay buffer (sampler). */
    std::size_t replayDepth() const { return replayBuffer_.size(); }

    /** Per-hop TLP latency (inject to delivery), in ticks. */
    const stats::Histogram &hopLatency() const { return hopLatency_; }

    /** TLP inject-to-ACK-purge latency, in ticks. */
    const stats::Histogram &ackLatency() const { return ackLatency_; }

    /** Every counter of this interface in one struct. */
    LinkErrorStats errorStats() const;
    /** @} */

    PCIESIM_AUDIT_ONLY(
    /** @{
     * Test hooks (audit builds only): force an illegal NAK
     * bookkeeping state and re-run the audit, so the audit death
     * tests can prove the invariants fire.
     */
    void
    corruptNakStateForAuditTest()
    {
        nakPending_ = true;
        nakScheduled_ = false;
        auditNakState();
    }

    void
    corruptReplayNumForAuditTest()
    {
        replayNum_ = 1000;
        auditNakState();
    }
    /** @} */)

  private:
    class ExtMasterPort;
    class ExtSlavePort;

    /** Accept a TLP from an external port. */
    bool acceptTlp(const PacketPtr &pkt);

    /** Whether a new TLP can be accepted right now. */
    bool canAcceptTlp() const;

    /** Try to start a transmission if the wire is free. */
    void tryTransmit();
    void scheduleTx();

    void processAck(SeqNum seq);
    void processNak(SeqNum seq);
    void processTlp(const PciePkt &pkt);

    void scheduleAckDllp(bool immediate);
    void ackTimerFired();
    void replayTimerFired();
    void startReplayTimer();

    /** Issue protocol retries after replay-buffer space frees. */
    void notifyExternalRetry();

    /** Whether the NAK/retrain machinery is active on this link. */
    bool nakEnabled() const { return nakEnabled_; }

    /** RX: queue a NAK for a loss (one per loss window). */
    void scheduleNak();

    /** TX: count a replay of the head TLP; may start a retrain. */
    void noteReplayInitiated();

    /** @{ Retrain hooks called by the owning PcieLink. */
    void prepareForRetrain();
    void resumeAfterRetrain();
    /** @} */

    /** Audit builds: NAK bookkeeping and REPLAY_NUM invariants. */
    void auditNakState() const;

    PcieLink &link_;
    std::string name_;
    bool isUpstream_;
    /** The domain queue this interface's events and clock live on
     *  (the owning link's queue until setDomains() splits them). */
    EventQueue *homeQueue_ = nullptr;
    UnidirectionalLink *txLink_ = nullptr;
    LinkInterface *peer_ = nullptr;

    std::unique_ptr<ExtMasterPort> extMaster_;
    std::unique_ptr<ExtSlavePort> extSlave_;

    ReplayBuffer replayBuffer_;
    /** Next sequence number to assign (TX). */
    SeqNum sendSeq_ = 0;
    /** Next sequence number expected (RX). */
    SeqNum recvSeq_ = 0;

    /** Accepted TLPs waiting for first transmission. */
    Ring<PciePkt> newQueue_;
    /** TLPs queued for retransmission after a timeout. */
    Ring<PciePkt> replayQueue_;
    /** Coalesced pending ACK. */
    bool ackPending_ = false;
    SeqNum ackSeq_ = 0;

    /** NAK machinery active (faults configured or enableNak). */
    bool nakEnabled_ = false;
    /** NAK DLLP queued for transmission. */
    bool nakPending_ = false;
    SeqNum nakSeq_ = 0;
    /** NAK_SCHEDULED: a loss window is open; at most one NAK is
     *  sent per window (cleared when the expected TLP arrives). */
    bool nakScheduled_ = false;
    /** REPLAY_NUM: consecutive replays of the same head TLP. */
    unsigned replayNum_ = 0;
    SeqNum replayHeadSeq_ = 0;
    bool replayHeadValid_ = false;

    bool wantReqRetry_ = false;
    bool wantRespRetry_ = false;

    /** A credit-stall interval is open: the first refusal has been
     *  seen and acceptance has not resumed since. */
    bool creditStalled_ = false;
    Tick creditStallStart_ = 0;

    MemberEventWrapper<LinkInterface,
                       &LinkInterface::tryTransmit> txEvent_;
    MemberEventWrapper<LinkInterface,
                       &LinkInterface::ackTimerFired> ackTimerEvent_;
    MemberEventWrapper<LinkInterface,
                       &LinkInterface::replayTimerFired> replayTimerEvent_;

    stats::Counter txTlps_;
    stats::Counter txDllps_;
    stats::Counter rxTlps_;
    stats::Counter rxDllps_;
    stats::Counter replayedTlps_;
    stats::Counter timeouts_;
    stats::Counter duplicateTlps_;
    stats::Counter outOfOrderDrops_;
    stats::Counter deliveryRefusals_;
    stats::Counter acceptRefusals_;
    stats::Counter creditStallTicks_;
    stats::Counter crcErrorsTlp_;
    stats::Counter crcErrorsDllp_;
    stats::Counter naksSent_;
    stats::Counter naksReceived_;
    stats::Counter retrains_;
    stats::Histogram hopLatency_;
    stats::Histogram ackLatency_;
    /** @{ Dump-time formulas (stats v2). */
    stats::Formula replayFraction_;
    stats::Formula replayHighWater_;
    /** @} */

    friend class PcieLink;
};

/**
 * A full PCI-Express link: upstream interface + downstream
 * interface + two unidirectional links.
 *
 * Wiring convention: the upstream interface faces the root complex
 * or a switch downstream port; the downstream interface faces a
 * device or a switch upstream port.
 */
class PcieLink : public SimObject
{
  public:
    PcieLink(Simulation &sim, const std::string &name,
             const PcieLinkParams &params = {});
    ~PcieLink() override;

    /** @{ Upstream-side connection points (toward the RC). */
    MasterPort &upMaster();
    SlavePort &upSlave();
    /** @} */

    /** @{ Downstream-side connection points (toward the device). */
    MasterPort &downMaster();
    SlavePort &downSlave();
    /** @} */

    void init() override;

    const PcieLinkParams &params() const { return params_; }

    /** The replay timeout for this link's configuration. */
    Tick replayTimeoutTicks() const { return replayTimeout_; }

    /** The ACK timer period for this link's configuration. */
    Tick ackPeriodTicks() const { return ackPeriod_; }

    LinkInterface &upstreamIf() { return *upstreamIf_; }
    LinkInterface &downstreamIf() { return *downstreamIf_; }

    /**
     * Split the link across two link domains (DESIGN.md §10): the
     * upstream interface (and packets delivered toward the RC) runs
     * on @p up_q, the downstream interface on @p down_q. The link's
     * flight latency becomes the conservative lookahead between the
     * two domains, so it must be at least the engine's quantum.
     * Fatal when the link has fault injection or NAK recovery
     * enabled — retraining touches both ends atomically, so faulty
     * links must stay within one domain.
     */
    void setDomains(EventQueue &up_q, EventQueue &down_q);

    /** Whether the link is down, retraining. */
    bool training() const { return training_; }

    /** @{ Current operating point — params() values until the
     *  degradation ladder (DESIGN.md §12) steps them down. */
    PcieGen currentGen() const { return curGen_; }
    unsigned currentWidth() const { return curWidth_; }
    bool degraded() const;
    /** @} */

    /**
     * Upward error signalling: the sink receives every ERR_COR /
     * ERR_NONFATAL / ERR_FATAL message this link generates, tagged
     * with the AER status bit and the detecting end. Wired by the
     * system builder toward the root complex; unset, errors stay
     * local to the link counters (the pre-AER behaviour).
     */
    using ErrorSink = std::function<void(
        ErrSeverity sev, std::uint32_t aer_bit, bool at_upstream_end)>;
    void setErrorSink(ErrorSink sink) { errorSink_ = std::move(sink); }

    /** Summed error/recovery counters of both interfaces. */
    LinkErrorStats errorStats() const;

    /** @{
     * Fabric roll-up hooks (DESIGN.md §14): raw occupancy and
     * credit-stall totals the topology builder aggregates into
     * "system.fabric.*" formulas.
     */
    /** Busy ticks per wire direction ("up" carries device -> RC). */
    Tick wireUpBusyTicks() const;
    Tick wireDownBusyTicks() const;
    /** Credit-stall ticks summed over both interfaces. */
    Tick creditStallTicks() const;
    /** Accept refusals summed over both interfaces. */
    std::uint64_t acceptRefusals() const;
    /** @} */

    /** @{ Per-direction fault state (tests, benches). The
     *  "toward upstream" wire carries device -> RC traffic. */
    FaultInjector &faultsTowardUpstream() { return *faultsToUp_; }
    FaultInjector &faultsTowardDownstream() { return *faultsToDown_; }
    /** @} */

  private:
    friend class UnidirectionalLink;
    friend class LinkInterface;

    /** Take the link down after REPLAY_NUM exhaustion: in-flight
     *  packets are lost, timers stop, and the link comes back after
     *  retrainLatency with a full replay. */
    void startRetrain(LinkInterface &initiator);
    void retrainDone();

    /** Escalate one detected error: sink + degradation ladder. */
    void reportLinkError(ErrSeverity sev, std::uint32_t bit,
                         bool at_upstream_end);
    /** @{ Degradation ladder (DESIGN.md §12). */
    void noteErrorForDegradation();
    bool canDegrade() const;
    void recomputeTimers();
    void degradeRetrain();
    void upconfigureTimerFired();
    void scheduleUpconfigure();
    /** @} */

    PcieLinkParams params_;
    Tick replayTimeout_;
    Tick ackPeriod_;
    bool training_ = false;
    /** @{ Current operating point and degradation state. */
    PcieGen curGen_;
    unsigned curWidth_;
    ErrorSink errorSink_;
    Tick errWindowStart_ = 0;
    unsigned errInWindow_ = 0;
    bool degradePending_ = false;
    bool upconfigurePending_ = false;
    /** Consecutive degradations since the last full restore; feeds
     *  the exponential upconfigure back-off. */
    unsigned consecutiveDegrades_ = 0;
    Rng degradeRng_;
    stats::Counter degradations_;
    stats::Counter upconfigures_;
    stats::Formula currentGenStat_;
    stats::Formula currentWidthStat_;
    MemberEventWrapper<PcieLink,
                       &PcieLink::degradeRetrain> degradeEvent_;
    MemberEventWrapper<PcieLink,
                       &PcieLink::upconfigureTimerFired>
        upconfigureEvent_;
    /** @} */
    std::unique_ptr<FaultInjector> faultsToUp_;
    std::unique_ptr<FaultInjector> faultsToDown_;
    std::unique_ptr<LinkInterface> upstreamIf_;
    std::unique_ptr<LinkInterface> downstreamIf_;
    std::unique_ptr<UnidirectionalLink> toUpstream_;
    std::unique_ptr<UnidirectionalLink> toDownstream_;
    /** Wire-occupancy fraction per direction, evaluated at dump. */
    stats::Formula wireUpUtilization_;
    stats::Formula wireDownUtilization_;
    MemberEventWrapper<PcieLink,
                       &PcieLink::retrainDone> retrainDoneEvent_;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_PCIE_LINK_HH
