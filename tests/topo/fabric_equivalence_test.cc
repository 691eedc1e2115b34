/**
 * @file
 * Example-topology suite: the checked-in examples under
 * examples/topologies/ that no golden or integration test builds
 * must at least load, build, and run their natural workload. The
 * four paper topologies are held byte for byte by the golden stats
 * suite and the integration tests, which build them from these
 * same files.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

TEST(FabricExamples, Tree3LoadsAndRuns)
{
    Simulation sim;
    Fabric fabric(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/tree3.json"));
    EXPECT_EQ(fabric.numSwitches(), 3u);
    EXPECT_EQ(fabric.numTrafficGens(), 4u);
    fabric.boot();
    double gbps = fabric.runDirectWrites(2, 4096);
    EXPECT_GT(gbps, 0.0);
}

TEST(FabricExamples, Fanout256LoadsAndRuns)
{
    Simulation sim;
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/fanout256.json");
    EXPECT_FALSE(desc.enumerate);
    Fabric fabric(sim, desc);
    EXPECT_EQ(fabric.numSwitches(), 17u);
    EXPECT_EQ(fabric.numTrafficGens(), 256u);
    double gbps = fabric.runDirectWrites(1, 4096);
    EXPECT_GT(gbps, 0.0);
}

} // namespace
