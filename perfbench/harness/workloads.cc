/**
 * @file
 * The benchmark's four workloads. Each invocation parses its
 * topology JSON, builds the Fabric, boots it when it enumerates,
 * and runs one closed simulation to completion; every phase is
 * timed from outside the public call that performs it. Simulated
 * outputs (pinned by the correctness gate) and per-layer readouts
 * are collected after the run.
 *
 *   dd_storage   paper Fig. 9(a) storage fabric, dd of one block,
 *                single queue
 *   fabric_t1    256 posted-write traffic generators under a
 *                two-level switch tree, driven directly through
 *                the parallel engine with one worker
 *   dd_lossy_t4  the storage fabric at BER 1e-5 with AER and the
 *                completion timeout armed, at --threads 4
 *   mmio_nic     paper Table II: 4-byte MMIO reads of a NIC on a
 *                root port at RC latency 50..150 ns
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"
#include "topo/fabric_builder.hh"

namespace perfbench
{

namespace
{

using namespace pciesim;

/**
 * Simulated work of one invocation: small, so that a 5 s run holds
 * 15-45 operations and their median is steady on a noisy host
 * (perfbench/README.md, "Spread and baseline").
 */
struct Sizes
{
    std::uint64_t ddBytes;
    std::uint32_t burstBytes;
    unsigned mmioReads;
};

Sizes
sizesFor(bool tiny)
{
    if (tiny)
        return {256 << 10, 256, 200};
    return {2ULL << 20, 512, 15000};
}

/** Posted-write bursts each traffic generator sends. */
constexpr std::uint32_t fabricBursts = 1;

/** Fault seeds the lossy workload picks from (seed % size). */
constexpr std::array<std::uint64_t, 4> lossyFaultSeeds = {1, 2, 3, 4};

/** Table II root-complex latencies in ns. */
constexpr std::array<unsigned, 5> rcLatenciesNs = {50, 75, 100, 125,
                                                   150};

/** Host time of the parse, build and boot spans of one fabric. */
struct Setup
{
    FabricDesc desc;
    double parseS = 0.0;
    double buildS = 0.0;
    double bootS = 0.0;
};

/**
 * Maps profiled event names ("owner.event") to the source layer of
 * their owning object, by the object's kind: the analyzer's layer
 * order sim <- mem <- pci <- pcie <- dev <- os <- topo.
 */
class LayerMap
{
  public:
    explicit LayerMap(Fabric &f)
    {
        for (PcieLink *l : f.links())
            add(l->name(), "pcie");
        for (unsigned i = 0; i < f.numSwitches(); ++i)
            add(f.pcieSwitch(i).name(), "pcie");
        add(f.rootComplex().name(), "pcie");
        for (unsigned i = 0; i < f.numDisks(); ++i)
            add(f.disk(i).name(), "dev");
        for (unsigned i = 0; i < f.numTrafficGens(); ++i)
            add(f.trafficGen(i).name(), "dev");
        for (unsigned i = 0; i < f.numNics(); ++i)
            add(f.nic(i).name(), "dev");
        add(f.gic().name(), "dev");
        add(f.kernel().name(), "os");
        add(f.dram().name(), "mem");
        // The memory bus is built by the Fabric but not exposed.
        add("system.membus", "mem");
        add(f.ioCache().name(), "mem");
        add(f.pciHost().name(), "pci");
        if (ErrReporter *e = f.errReporter())
            add(e->name(), "pcie");
    }

    /** Layer of @p event, or "" when no object owns it. */
    std::string
    classify(const std::string &event) const
    {
        std::size_t best = 0;
        std::string layer;
        for (const auto &[prefix, l] : prefixes_) {
            if (prefix.size() > best &&
                event.compare(0, prefix.size(), prefix) == 0) {
                best = prefix.size();
                layer = l;
            }
        }
        return layer;
    }

  private:
    void
    add(const std::string &object, const char *layer)
    {
        prefixes_.emplace_back(object + ".", layer);
    }

    std::vector<std::pair<std::string, std::string>> prefixes_;
};

Setup
setUp(const std::string &path)
{
    Setup s;
    Stopwatch parse;
    s.desc = loadFabricDesc(path);
    s.parseS = parse.seconds();
    return s;
}

/** Build (timed) and, when the fabric enumerates, boot (timed). */
std::unique_ptr<Fabric>
build(Simulation &sim, Setup &s)
{
    Stopwatch build;
    auto fabric = std::make_unique<Fabric>(sim, s.desc);
    s.buildS = build.seconds();
    if (s.desc.enumerate) {
        Stopwatch boot;
        fabric->boot();
        s.bootS = boot.seconds();
    }
    return fabric;
}

/**
 * Start the profiler (when asked) for the run call only. Every
 * event is timed (sample period 1), so no per-name time is
 * extrapolated from a first, cold occurrence.
 */
void
startProfile(const RepOptions &opts)
{
    if (!opts.profile)
        return;
    prof::setEnabled(true);
    prof::setReportTimes(true);
    prof::setSamplePeriod(1);
    prof::reset();
}

/** An event that does nothing: the load the profiler is timed on. */
class NoopEvent : public Event
{
  public:
    NoopEvent() : Event("perfbench.noop") {}
    void process() override {}
};

/** Batches and calls per batch of each profiler calibration. */
constexpr int calibrationBatches = 5;
constexpr int calibrationReps = 40000;

/**
 * Mean host ns of one @p call, from the fastest of a few batches,
 * so that a burst of host noise does not inflate a correction.
 */
template <class F>
double
fastestBatchNs(F &&call)
{
    double best = std::numeric_limits<double>::infinity();
    for (int b = 0; b < calibrationBatches; ++b) {
        Stopwatch w;
        for (int i = 0; i < calibrationReps; ++i)
            call();
        best = std::min(best, w.seconds() * 1e9 / calibrationReps);
    }
    return best;
}

/**
 * Host ns the profiler's timed interval adds to every event: the
 * span between two back-to-back steady_clock reads, the same pair
 * that brackets Event::process() in prof::profileProcess(). Fastest
 * batch, as above.
 */
double
clockPairNs()
{
    double best = std::numeric_limits<double>::infinity();
    for (int b = 0; b < calibrationBatches; ++b) {
        std::uint64_t total = 0;
        for (int i = 0; i < calibrationReps; ++i) {
            auto t0 = std::chrono::steady_clock::now();
            total += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
        best = std::min(best, static_cast<double>(total) /
                                  calibrationReps);
    }
    return best;
}

/**
 * Host ns prof::profileProcess() adds to one event over a plain
 * process() call: its name lookup, clock pair and record update.
 * Measured on a no-op event with warm caches, so it is a lower
 * estimate of what the profiler costs a real run.
 */
double
profilerNsPerEvent()
{
    NoopEvent noop;
    Event *volatile target = &noop;
    double plain = fastestBatchNs([target] { target->process(); });
    double profiled =
        fastestBatchNs([target] { prof::profileProcess(target); });
    return std::max(0.0, profiled - plain);
}

/**
 * Roll the profiler's hot spots up into per-layer ms and stop it.
 * Each timed event's clock-pair cost is subtracted from its layer.
 * The record also gets "profiler": the profiler's own per-event
 * work, calibrated in this process, times the events it served.
 */
void
stopProfile(const RepOptions &opts, Fabric &fabric, Record &out)
{
    if (!opts.profile)
        return;
    prof::setEnabled(false);
    std::vector<prof::HotSpot> spots = prof::hotSpots();
    double events = static_cast<double>(prof::totalEvents());
    double clock_ns = clockPairNs();
    out.add("profiler", profilerNsPerEvent() * events / 1e6);
    prof::reset();

    LayerMap map(fabric);
    for (const char *layer : {"sim", "mem", "pci", "pcie", "dev", "os"})
        out.add(layer, 0.0);
    for (const prof::HotSpot &h : spots) {
        double ms = (static_cast<double>(h.sampledNs) -
                     clock_ns * static_cast<double>(h.sampled)) /
                    1e6;
        // Events without an owning object (one-shot wrappers,
        // engine-posted calls) belong to the simulation core.
        std::string layer = map.classify(h.name);
        out.add(layer.empty() ? "sim" : layer, ms);
    }
}

/** Quantile of a simulated-time histogram in ns (0 if empty). */
double
histNs(Simulation &sim, const std::string &name, double q)
{
    const stats::Histogram *h = sim.statsRegistry().histogram(name);
    if (h == nullptr || h->samples() == 0)
        return 0.0;
    return ticksToNs(h->quantile(q));
}

/** Per-layer readouts common to every fabric run. */
void
readLayers(Simulation &sim, Fabric &fabric, Record &layers)
{
    ParallelEngine *eng = sim.engine();
    if (eng != nullptr) {
        double domains = eng->numDomains();
        double windows = static_cast<double>(eng->windowsSynced());
        double mailbox = 0.0;
        for (unsigned d = 0; d < eng->numDomains(); ++d)
            mailbox += static_cast<double>(eng->mailboxSent(d));
        const stats::Vector *active = sim.statsRegistry().vector(
            "system.parallel.domainActiveWindows");
        double active_sum =
            active ? static_cast<double>(active->total()) : 0.0;
        layers.set("sim.parallel.domains", domains);
        layers.add("sim.parallel.windows", windows);
        layers.add("sim.parallel.mailbox_ops", mailbox);
        layers.add("sim.parallel.active_windows", active_sum);
        layers.add("sim.parallel.domain_windows", windows * domains);
        layers.set("sim.parallel.load_imbalance",
                   eng->loadImbalance());
        layers.set("sim.parallel.sync_fraction",
                   eng->syncOverheadFraction());
    } else {
        layers.set("sim.parallel.domains", sim.numDomains());
    }

    LinkErrorStats links;
    for (PcieLink *l : fabric.links())
        links += l->errorStats();
    layers.add("pcie.link.tx_tlps", static_cast<double>(links.txTlps));
    layers.add("pcie.link.replayed_tlps",
               static_cast<double>(links.replayedTlps));
    layers.add("pcie.link.naks", static_cast<double>(links.naksSent));

    auto &reg = sim.statsRegistry();
    if (reg.has("system.fabric.maxWireUtilization")) {
        layers.set("pcie.fabric.max_wire_utilization",
                   std::max(layers.get(
                                "pcie.fabric.max_wire_utilization"),
                            reg.formulaValue(
                                "system.fabric.maxWireUtilization")));
        layers.add("pcie.fabric.credit_stall_ticks",
                   reg.formulaValue("system.fabric.creditStallTicks"));
    }
}

/** Completion timeouts seen by the kernel and every disk. */
double
completionTimeouts(Fabric &fabric)
{
    std::uint64_t n = fabric.kernel().completionTimeouts();
    for (unsigned i = 0; i < fabric.numDisks(); ++i)
        n += fabric.disk(i).dmaCompletionTimeouts();
    return static_cast<double>(n);
}

void
recordSetup(const Setup &s, RepResult &r)
{
    r.spans.add("topo.parse_s", s.parseS);
    r.spans.add("topo.build_s", s.buildS);
    r.spans.add("pci.enumerate_s", s.bootS);
    r.spans.add("setup_s", s.parseS + s.buildS + s.bootS);
}

/** dd of one block on the storage fabric (clean or lossy). */
RepResult
runStorageDd(const RepOptions &opts, bool lossy)
{
    Sizes sz = sizesFor(opts.tiny);
    RepResult r;
    Setup s = setUp(opts.root + "/examples/topologies/storage.json");
    if (lossy) {
        SystemConfig &c = s.desc.config;
        c.linkBitErrorRate = 1e-5;
        c.faultSeed =
            lossyFaultSeeds[opts.seed % lossyFaultSeeds.size()];
        c.aerEnabled = true;
        c.completionTimeout = milliseconds(1);
        c.threads = 4;
        r.outputs.set("fault_seed", static_cast<double>(c.faultSeed));
    }
    Simulation sim;
    auto fabric = build(sim, s);
    recordSetup(s, r);

    DdWorkloadParams dd;
    dd.blockBytes = sz.ddBytes;
    std::uint64_t events0 = sim.eventsProcessed();
    startProfile(opts);
    Stopwatch run;
    double gbps = fabric->runDd(dd);
    r.spans.set("run_s", run.seconds());

    r.outputs.set("gbps", gbps);
    r.outputs.set("sim_ticks", static_cast<double>(sim.curTick()));
    r.layers.set("sim.events",
                 static_cast<double>(sim.eventsProcessed() - events0));
    r.layers.set("pci.functions",
                 static_cast<double>(
                     fabric->kernel().enumerate().functions.size()));
    r.layers.set("endpoints", fabric->numDisks());
    r.layers.set("dev.dma.lat_p50_ns",
                 histNs(sim, "system.disk.dma.e2eLatency", 0.50));
    r.layers.set("dev.dma.lat_p99_ns",
                 histNs(sim, "system.disk.dma.e2eLatency", 0.99));
    readLayers(sim, *fabric, r.layers);
    stopProfile(opts, *fabric, r.profile);
    if (lossy) {
        r.outputs.set("replayed_tlps",
                      r.layers.get("pcie.link.replayed_tlps"));
        r.outputs.set("naks", r.layers.get("pcie.link.naks"));
        r.outputs.set("completion_timeouts",
                      completionTimeouts(*fabric));
    }
    return r;
}

/** Direct-drive posted writes on the 256-generator tree. */
RepResult
runFabricT1(const RepOptions &opts)
{
    Sizes sz = sizesFor(opts.tiny);
    RepResult r;
    Setup s = setUp(opts.root + "/perfbench/topologies/fabric256_d2.json");
    Simulation sim;
    auto fabric = build(sim, s);
    recordSetup(s, r);

    std::uint64_t events0 = sim.eventsProcessed();
    startProfile(opts);
    Stopwatch run;
    double gbps = fabric->runDirectWrites(fabricBursts, sz.burstBytes);
    r.spans.set("run_s", run.seconds());

    r.outputs.set("gbps", gbps);
    r.outputs.set("sim_ticks", static_cast<double>(sim.curTick()));
    r.layers.set("sim.events",
                 static_cast<double>(sim.eventsProcessed() - events0));
    r.layers.set("endpoints", fabric->numTrafficGens());
    readLayers(sim, *fabric, r.layers);
    stopProfile(opts, *fabric, r.profile);
    return r;
}

/** Table II: one NIC fabric per RC latency, in seed order. */
RepResult
runMmioNic(const RepOptions &opts)
{
    Sizes sz = sizesFor(opts.tiny);
    RepResult r;
    std::array<unsigned, rcLatenciesNs.size()> order = rcLatenciesNs;
    std::mt19937_64 rng(opts.seed);
    std::shuffle(order.begin(), order.end(), rng);

    double run_s = 0.0;
    for (unsigned rc : order) {
        Setup s = setUp(opts.root + "/examples/topologies/nic.json");
        s.desc.config.rcLatency = nanoseconds(rc);
        Simulation sim;
        auto fabric = build(sim, s);
        recordSetup(s, r);

        std::uint64_t events0 = sim.eventsProcessed();
        startProfile(opts);
        Stopwatch run;
        Tick t = fabric->measureMmioReadLatency(sz.mmioReads);
        run_s += run.seconds();

        r.outputs.set("mmio_read_ns.rc" + std::to_string(rc),
                      ticksToNs(t));
        r.outputs.add("completion_timeouts",
                      completionTimeouts(*fabric));
        r.layers.add("sim.events", static_cast<double>(
                                       sim.eventsProcessed() - events0));
        r.layers.set("pci.functions",
                     static_cast<double>(
                         fabric->kernel().enumerate().functions.size()));
        r.layers.add("endpoints", fabric->numNics());
        readLayers(sim, *fabric, r.layers);
        stopProfile(opts, *fabric, r.profile);
    }
    r.spans.set("run_s", run_s);
    return r;
}

} // namespace

RepResult
runWorkload(const RepOptions &opts)
{
    if (opts.workload == "dd_storage")
        return runStorageDd(opts, false);
    if (opts.workload == "dd_lossy_t4")
        return runStorageDd(opts, true);
    if (opts.workload == "fabric_t1")
        return runFabricT1(opts);
    if (opts.workload == "mmio_nic")
        return runMmioNic(opts);
    fatal("unknown workload '", opts.workload, "'");
}

} // namespace perfbench
