#include "profile/profile_collector.hh"

namespace vpprof
{

namespace
{

/** Infinite, unclassified predictor configuration for profiling. */
PredictorConfig
profilingConfig()
{
    PredictorConfig cfg;
    cfg.numEntries = 0;   // infinite
    cfg.counterBits = 0;  // no FSM during profiling
    return cfg;
}

} // namespace

ProfileCollector::ProfileCollector(std::string program_name)
    : image_(std::move(program_name)),
      stride_(profilingConfig()),
      lastValue_(profilingConfig())
{
}

PcProfile &
ProfileCollector::profileFor(uint64_t pc)
{
    PcProfile *&slot = slots_.at(pc);
    if (slot == nullptr)
        slot = &image_.at(pc);
    return *slot;
}

void
ProfileCollector::record(const TraceRecord &rec)
{
    if (!rec.writesReg)
        return;
    ++producersSeen_;

    PcProfile &prof = profileFor(rec.pc);
    prof.opClass = classOf(rec.op);
    ++prof.executions;

    Prediction sp = stride_.step(rec.pc, rec.value);
    if (sp.hit) {
        ++prof.attempts;
        if (sp.value == rec.value) {
            ++prof.correct;
            if (sp.usedNonZeroStride)
                ++prof.correctNonZeroStride;
        }
    }

    Prediction lp = lastValue_.step(rec.pc, rec.value);
    if (lp.hit) {
        ++prof.lastValueAttempts;
        if (lp.value == rec.value)
            ++prof.lastValueCorrect;
    }
}

ProfileImage
ProfileCollector::takeImage()
{
    ProfileImage out = std::move(image_);
    image_ = ProfileImage(std::string(out.programName()));
    slots_.clear();
    stride_.reset();
    lastValue_.reset();
    producersSeen_ = 0;
    return out;
}

} // namespace vpprof
