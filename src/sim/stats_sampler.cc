#include "stats_sampler.hh"

#include "event_queue.hh"
#include "logging.hh"
#include "simulation.hh"
#include "trace.hh"

namespace pciesim
{

StatsSampler::StatsSampler(Simulation &sim, const std::string &name,
                           Tick interval)
    : SimObject(sim, name), interval_(interval),
      sampleEvent_(this, name + ".sampleEvent")
{
    fatalIf(interval_ == 0,
            "stats sampler '", name, "' needs a nonzero interval");
}

void
StatsSampler::addGauge(const std::string &series,
                       std::function<double()> probe)
{
    names_.push_back(series);
    probes_.push_back(Probe{std::move(probe), false, 0.0});
}

void
StatsSampler::addRate(const std::string &series,
                      std::function<double()> probe)
{
    names_.push_back(series);
    probes_.push_back(Probe{std::move(probe), true, 0.0});
}

void
StatsSampler::init()
{
    statsRegistry().add(name(), "samplesTaken", &samplesTaken_,
                        "periodic stats samples emitted",
                        stats::Unit::Count);
}

void
StatsSampler::startup()
{
    if (!probes_.empty())
        schedule(sampleEvent_, interval_);
}

void
StatsSampler::sampleNow()
{
    Row row;
    row.tick = curTick();
    row.values.reserve(probes_.size());
    double secs = ticksToSeconds(interval_);
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        Probe &p = probes_[i];
        double raw = p.fn();
        double v = raw;
        if (p.isRate) {
            v = (raw - p.lastValue) / secs;
            p.lastValue = raw;
        }
        row.values.push_back(v);
        TRACE_COUNTER(trace::Flag::Stats, row.tick, name(),
                      names_[i], v);
    }
    rows_.push_back(std::move(row));
    ++samplesTaken_;

    // Only reschedule while the simulation still has work: a
    // self-perpetuating timer would otherwise keep run() from
    // ever draining the queue.
    if (!eventq().empty())
        schedule(sampleEvent_, interval_);
}

} // namespace pciesim
