/**
 * @file
 * Large-topology scaling bench for the declarative fabric builder
 * (DESIGN.md Sec. 13): sweeps endpoint count x switch-tree depth,
 * building each fabric from a generated FabricDesc, and reports
 * construction cost, enumeration cost, simulation rate, and memory
 * per endpoint. The 1024-endpoint points sit beyond the 255-bus
 * enumeration ceiling and exercise the "enumerate": false direct
 * drive path; the small points enumerate the whole tree first.
 *
 * With --topology=FILE the bench instead loads a JSON topology
 * (under examples/topologies/) and runs its natural workload:
 * dd when the fabric has a disk, direct DMA writes when it has
 * traffic generators, a bare boot otherwise.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include <sys/resource.h>

#include "bench_common.hh"
#include "topo/fabric_builder.hh"

namespace
{

using namespace bench;
using namespace pciesim;

/** Resident set size in kB (0 when unavailable or --no-timing). */
double
rssKb()
{
    if (globalArgs().noTiming)
        return 0.0;
    double kb = 0.0;
#ifdef __linux__
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            if (std::sscanf(line, "VmRSS: %lf kB", &kb) == 1)
                break;
        }
        std::fclose(f);
    }
#endif
    return kb;
}

/**
 * CPU time of the whole process, every thread, in ms (0 under
 * --no-timing). Unlike wall time it does not count the time a
 * shared host spends running other processes.
 */
double
cpuMs()
{
    if (globalArgs().noTiming)
        return 0.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/** One generated sweep shape. */
struct Shape
{
    unsigned endpoints;
    unsigned depth;
};

/**
 * Build a balanced tree description: @p depth levels of switches
 * with a uniform fan chosen so the leaf level holds
 * @p endpoints traffic generators (each fan capped at 32, the
 * one-bus device-slot limit).
 */
FabricDesc
makeSweepDesc(const Shape &shape, const SystemConfig &config)
{
    FabricDesc desc;
    desc.source = "<sweep>";
    desc.config = config;
    desc.gen.postedWrites = true;

    // Uniform fan (capped at the switch's 16 downstream ports):
    // the smallest f with f^(depth+1) >= endpoints (depth switch
    // levels plus the endpoint level), then widened until the top
    // level fits the root complex's 8 root ports.
    auto topCount = [&shape](unsigned f) {
        unsigned c = (shape.endpoints + f - 1) / f;
        for (unsigned l = 1; l < shape.depth; ++l)
            c = (c + f - 1) / f;
        return c;
    };
    unsigned fan = 1;
    while (fan < 16) {
        double total = std::pow(static_cast<double>(fan),
                                static_cast<double>(shape.depth + 1));
        if (total >= static_cast<double>(shape.endpoints))
            break;
        ++fan;
    }
    while (fan < 16 && topCount(fan) > 8)
        ++fan;

    // Per-level switch population, leaves up: enough switches to
    // hold the level below.
    std::vector<unsigned> counts(shape.depth);
    counts[shape.depth - 1] =
        (shape.endpoints + fan - 1) / fan;
    for (int l = static_cast<int>(shape.depth) - 2; l >= 0; --l)
        counts[l] = (counts[l + 1] + fan - 1) / fan;

    // Switch levels, parents first; round-robin parent assignment
    // mirrors the builder's own count expansion.
    unsigned prev_count = 0;
    std::string prev_prefix;
    for (unsigned level = 0; level < shape.depth; ++level) {
        unsigned count = counts[level];
        std::string prefix = "sw" + std::to_string(level) + "_";
        for (unsigned i = 0; i < count; ++i) {
            FabricNodeDesc sw;
            sw.name = prefix + std::to_string(i);
            sw.kind = "switch";
            sw.ports = fan;
            if (level > 0) {
                sw.parent =
                    prev_prefix + std::to_string(i % prev_count);
            }
            desc.nodes.push_back(sw);
        }
        prev_count = count;
        prev_prefix = prefix;
    }

    for (unsigned i = 0; i < shape.endpoints; ++i) {
        FabricNodeDesc gen;
        gen.name = "tgen" + std::to_string(i);
        gen.kind = "traffic_gen";
        gen.parent = prev_prefix + std::to_string(i % prev_count);
        desc.nodes.push_back(gen);
    }

    // Enumerability: every bridge consumes one bus (root ports,
    // switch upstreams, every downstream port).
    unsigned switches = 0;
    unsigned root_children = 0;
    for (const FabricNodeDesc &n : desc.nodes) {
        if (n.kind == "switch") {
            ++switches;
            if (n.parent == "rc")
                ++root_children;
        }
    }
    unsigned buses = std::max(3u, root_children) +
                     switches * (1 + fan);
    desc.enumerate = buses <= 255;
    return desc;
}

/** Run one fabric and emit its record. */
void
runFabric(JsonEmitter &json, const std::string &label,
          const FabricDesc &desc, std::uint32_t bursts,
          std::uint32_t burst_bytes)
{
    prof::reset();
    Simulation sim;
    WallTimer build_timer;
    Fabric fabric(sim, desc);
    double build_ms = build_timer.elapsedMs();

    // Stat registration and startup, booked on their own so neither
    // enum_ms nor the run's events/sec carries them.
    WallTimer init_timer;
    sim.initialize();
    double init_ms = init_timer.elapsedMs();

    double enum_ms = 0.0;
    if (desc.enumerate && !fabric.numNics()) {
        WallTimer enum_timer;
        fabric.boot();
        enum_ms = enum_timer.elapsedMs();
    }

    WallTimer run_timer;
    double cpu_start_ms = cpuMs();
    double gbps = 0.0;
    if (fabric.numTrafficGens() > 0) {
        gbps = fabric.runDirectWrites(bursts, burst_bytes);
    } else if (fabric.numDisks() > 0) {
        DdWorkloadParams dd;
        dd.blockBytes = 1 << 20;
        gbps = fabric.runDd(dd);
    } else {
        fabric.boot();
    }
    double wall_ms = run_timer.elapsedMs();
    double cpu_ms = cpuMs() - cpu_start_ms;

    unsigned endpoints = fabric.numTrafficGens() +
                         fabric.numDisks() + fabric.numNics();
    double events =
        static_cast<double>(sim.eventsProcessed());
    double eps = wall_ms > 0.0 ? events / (wall_ms / 1e3) : 0.0;
    double rss_per_ep =
        endpoints > 0 ? rssKb() / endpoints : rssKb();

    // Partition summary (DESIGN.md §14): how buildPcie() cut the
    // fabric, and what the engine's flight recorder saw. All
    // fields are zero for a single-queue run.
    ParallelTelemetry pt = readParallelTelemetry(sim);
    double quantum_ns = 0.0;
    double ep_per_domain = 0.0;
    if (ParallelEngine *eng = sim.engine()) {
        quantum_ns = ticksToNs(eng->quantum());
        // Domain 0 is the host; endpoints live in the cut domains.
        if (eng->numDomains() > 1) {
            ep_per_domain =
                static_cast<double>(endpoints) /
                static_cast<double>(eng->numDomains() - 1);
        }
    }

    if (json.enabled()) {
        json.record(label,
                    {{"endpoints", static_cast<double>(endpoints)},
                     {"switches",
                      static_cast<double>(fabric.numSwitches())},
                     {"links", static_cast<double>(
                                   fabric.links().size())},
                     {"enumerated",
                      desc.enumerate ? 1.0 : 0.0},
                     {"build_ms", build_ms},
                     {"init_ms", init_ms},
                     {"enum_ms", enum_ms},
                     {"sim_ticks", static_cast<double>(
                                       sim.curTick())},
                     {"events", events},
                     {"events_per_sec", eps},
                     {"cpu_ms", cpu_ms},
                     {"rss_kb_per_endpoint", rss_per_ep},
                     {"gbps", gbps},
                     {"threads", static_cast<double>(
                                     globalArgs().threads)},
                     {"domains", pt.domains},
                     {"endpoints_per_domain", ep_per_domain},
                     {"lookahead_ns", quantum_ns},
                     {"windows", pt.windows},
                     {"sync_fraction", pt.syncFraction},
                     {"serial_ms", pt.serialMs},
                     {"load_imbalance", pt.loadImbalance},
                     {"mailbox_ops", pt.mailboxOps}});
    } else {
        std::printf("%-12s %5u ep %3u sw %5zu links %s "
                    "build %7.2f ms init %6.2f ms enum %7.2f ms "
                    "%10.0f ev/s %8.1f kB/ep %7.3f Gbps\n",
                    label.c_str(), endpoints,
                    fabric.numSwitches(), fabric.links().size(),
                    desc.enumerate ? "enum  " : "direct",
                    build_ms, init_ms, enum_ms, eps, rss_per_ep, gbps);
        if (pt.domains > 0.0) {
            char sync[32] = "";
            if (pt.syncFraction > 0.0) {
                std::snprintf(sync, sizeof(sync), ", sync frac %.3f",
                              pt.syncFraction);
            }
            std::printf("  partition: %.0f domains, %.2f ep/domain, "
                        "lookahead %.0f ns, %.0f windows, "
                        "imbalance %.2f, %.0f mailbox ops%s\n",
                        pt.domains, ep_per_domain, quantum_ns,
                        pt.windows, pt.loadImbalance, pt.mailboxOps,
                        sync);
        } else if (globalArgs().threads >= 1) {
            std::printf("  partition: single-queue (partitioning "
                        "unavailable for this configuration)\n");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    BenchArgs args = parseArgs(argc, argv);
    JsonEmitter json("fabric", args.json);

    std::string topology;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--topology=", 11) == 0)
            topology = argv[i] + 11;
    }

    if (!topology.empty()) {
        FabricDesc desc = loadFabricDesc(topology);
        applyObservability(args, desc.config);
        runFabric(json, topology, desc, 8, 16384);
        return 0;
    }

    SystemConfig config;
    config.gen = PcieGen::Gen3;
    // Coarse lookahead (cf. parallel_determinism_test): the sweep
    // partitions into up to ~1100 link domains, and the default
    // 5 ns propagation would make the synchronization quantum so
    // fine that a partitioned run steps millions of windows. A
    // 500 ns wire with a generous replay timeout keeps --threads N
    // steppable without changing what the sweep measures.
    config.linkPropagation = nanoseconds(500);
    config.replayTimeoutScale = 100.0;
    applyObservability(args, config);

    // 8 root ports x 16-port switches cap depth 1 at 128
    // endpoints; the 256- and 1024-endpoint points need a second
    // switch level.
    std::vector<Shape> shapes;
    std::uint32_t bursts = 4;
    if (args.scale == Scale::Smoke) {
        shapes = {{8, 1}, {1024, 2}};
        bursts = 2;
    } else {
        shapes = {{8, 1},  {64, 1},  {64, 2},
                  {256, 2}, {1024, 2}};
        if (args.scale == Scale::Paper)
            shapes.push_back({1024, 3});
    }

    if (!args.json) {
        std::printf("fabric scaling sweep (endpoints x switch "
                    "depth)\n");
    }
    for (const Shape &s : shapes) {
        std::string label = std::to_string(s.endpoints) + "ep/d" +
                            std::to_string(s.depth);
        runFabric(json, label, makeSweepDesc(s, config), bursts,
                  4096);
    }
    return 0;
}
