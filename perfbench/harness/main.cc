/**
 * @file
 * Command-line front end of the benchmark harness. run.py starts
 * one process per operation, so a fatal() or a crash costs one
 * failed operation and the peak RSS is that of one workload run:
 *
 *   pcie_perfbench rep --workload NAME --seed N --root DIR
 *                      [--profile] [--tiny]
 *   pcie_perfbench micro --budget SECONDS
 *
 * Each prints one JSON object on its last line of stdout.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hh"
#include "sim/logging.hh"

namespace perfbench
{

std::string
Record::json() const
{
    std::string out = "{";
    char num[64];
    for (const auto &[k, v] : fields_) {
        std::snprintf(num, sizeof(num), "%.17g", v);
        if (out.size() > 1)
            out += ", ";
        out += "\"" + k + "\": " + num;
    }
    return out + "}";
}

} // namespace perfbench

namespace
{

/** Peak resident set of this process in kB (VmHWM). */
long
peakRssKb()
{
    long kb = 0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
                break;
        }
        std::fclose(f);
    }
    return kb;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: pcie_perfbench rep --workload NAME --seed N "
                 "--root DIR [--profile] [--tiny]\n"
                 "       pcie_perfbench micro --budget SECONDS\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    pciesim::setInformEnabled(false);
    if (argc < 2)
        usage();
    std::string mode = argv[1];
    RepOptions opts;
    double budget = 0.5;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            opts.workload = argv[++i];
        else if (a == "--seed" && has_value)
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--root" && has_value)
            opts.root = argv[++i];
        else if (a == "--profile")
            opts.profile = true;
        else if (a == "--budget" && has_value)
            budget = std::strtod(argv[++i], nullptr);
        else if (a == "--tiny")
            opts.tiny = true;
        else
            usage();
    }

    if (mode == "micro") {
        std::printf("%s\n", runMicroDrivers(budget).json().c_str());
        return 0;
    }
    if (mode != "rep")
        usage();
    RepResult r = runWorkload(opts);
    std::string line = "{\"vmhwm_kb\": " + std::to_string(peakRssKb()) +
                       ", \"spans\": " + r.spans.json() +
                       ", \"outputs\": " + r.outputs.json() +
                       ", \"layers\": " + r.layers.json() +
                       ", \"profile\": " + r.profile.json() + "}";
    std::printf("%s\n", line.c_str());
    return 0;
}
