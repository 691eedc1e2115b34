/**
 * @file
 * Shared declarations of the repository benchmark harness: the
 * record type every measurement is written into, the workload
 * runner (one set-up plus one run of a named workload), and the
 * per-layer micro drivers. Everything here calls the simulator's
 * public headers only; timing is taken from outside the calls.
 */

#ifndef PCIESIM_PERFBENCH_HARNESS_HARNESS_HH
#define PCIESIM_PERFBENCH_HARNESS_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Ordered name -> number pairs, printed as one JSON object. */
class Record
{
  public:
    void
    set(const std::string &name, double value)
    {
        for (auto &[k, v] : fields_) {
            if (k == name) {
                v = value;
                return;
            }
        }
        fields_.emplace_back(name, value);
    }

    void
    add(const std::string &name, double value)
    {
        set(name, get(name) + value);
    }

    double
    get(const std::string &name) const
    {
        for (const auto &[k, v] : fields_) {
            if (k == name)
                return v;
        }
        return 0.0;
    }

    /** JSON object text, numbers with full precision. */
    std::string json() const;

  private:
    std::vector<std::pair<std::string, double>> fields_;
};

/** Host wall-clock stopwatch in seconds. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        auto d = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** What one workload invocation measured. */
struct RepResult
{
    /** Host-time spans in seconds: topo.parse_s, topo.build_s,
     *  pci.enumerate_s, setup_s, run_s. */
    Record spans;
    /** Simulated outputs the correctness gate compares with the
     *  pinned values. */
    Record outputs;
    /** Per-layer counts and simulated readouts of the run. */
    Record layers;
    /** Profiled event time per source layer in ms, plus
     *  "profiler", the profiler's own estimated share (profiled
     *  invocations only). */
    Record profile;
};

/** Options of one workload invocation. */
struct RepOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Repository root holding examples/ and perfbench/. */
    std::string root = ".";
    /** Profile the run call and roll event time up by layer. */
    bool profile = false;
    /** Scale the simulated work down (self-test runs). */
    bool tiny = false;
};

/** Set up and run one workload once. fatal()s on bad input. */
RepResult runWorkload(const RepOptions &opts);

/**
 * Run the four layer micro drivers, each for about @p budget_s
 * host seconds, and return sim.eventq.churn_mops,
 * mem.pool.alloc_free_mops, mem.xbar.forward_ns and
 * pcie.link.tlps_per_s.
 */
Record runMicroDrivers(double budget_s);

} // namespace perfbench

#endif // PCIESIM_PERFBENCH_HARNESS_HARNESS_HH
