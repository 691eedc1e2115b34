#include "dd_workload.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace
{
// The dd process has no SimObject of its own; it traces on a
// fixed track name.
const std::string ddTrack = "dd";
} // namespace

namespace pciesim
{

DdWorkload::DdWorkload(Kernel &kernel, IdeDriver &driver,
                       const DdWorkloadParams &params)
    : kernel_(kernel), driver_(driver), params_(params),
      statPrefix_(kernel.name() + ".dd")
{
    panicIf(params_.blockBytes == 0, "dd needs a nonzero block size");
    panicIf(params_.count == 0, "dd needs count >= 1");

    auto &reg = kernel_.statsRegistry();
    using stats::Unit;
    bytesStat_ = [this] {
        return static_cast<double>(bytesTransferred());
    };
    reg.add(statPrefix_, "bytesTransferred", &bytesStat_,
            "payload bytes read by dd", Unit::Byte);
    blocksStat_ = [this] { return static_cast<double>(blocksDone_); };
    reg.add(statPrefix_, "blocksDone", &blocksStat_,
            "dd blocks completed", Unit::Count);
    goodputStat_ = [this] {
        return finished_ ? throughputGbps() * 1e9 : 0.0;
    };
    reg.add(statPrefix_, "goodput", &goodputStat_,
            "application-level dd throughput", Unit::BitPerSecond);
}

DdWorkload::~DdWorkload()
{
    auto &reg = kernel_.statsRegistry();
    reg.remove(statPrefix_ + ".bytesTransferred");
    reg.remove(statPrefix_ + ".blocksDone");
    reg.remove(statPrefix_ + ".goodput");
}

void
DdWorkload::run(std::function<void()> done)
{
    onDone_ = std::move(done);
    startTick_ = kernel_.curTick();
    blocksDone_ = 0;
    finished_ = false;

    // Direct I/O: a single aligned buffer reused for every block.
    // (Reads land in it and are discarded, of=/dev/null.)
    if (bufAddr_ == 0)
        bufAddr_ = kernel_.allocDma(params_.blockBytes, 4096);

    TRACE_SPAN_BEGIN(trace::Flag::Workload, startTick_, ddTrack,
                     "dd ", params_.count, "x", params_.blockBytes,
                     "B");
    kernel_.defer(params_.invocationOverhead, [this] { nextBlock(); });
}

void
DdWorkload::nextBlock()
{
    kernel_.defer(params_.perBlockOverhead, [this] {
        TRACE_SPAN_BEGIN(trace::Flag::Workload, kernel_.curTick(),
                         ddTrack, "block ", blocksDone_);
        driver_.read(bufAddr_, params_.blockBytes, [this] {
            ++blocksDone_;
            TRACE_SPAN_END(trace::Flag::Workload, kernel_.curTick(),
                           ddTrack);
            if (blocksDone_ < params_.count) {
                nextBlock();
            } else {
                endTick_ = kernel_.curTick();
                finished_ = true;
                TRACE_SPAN_END(trace::Flag::Workload, endTick_,
                               ddTrack);
                if (onDone_) {
                    auto cb = std::move(onDone_);
                    onDone_ = nullptr;
                    cb();
                }
            }
        });
    });
}

double
DdWorkload::throughputGbps() const
{
    panicIf(!finished_, "dd throughput queried before completion");
    double bits = static_cast<double>(bytesTransferred()) * 8.0;
    double secs = ticksToSeconds(elapsed());
    return bits / secs / 1e9;
}

} // namespace pciesim
