#include "predictors/saturating_classifier.hh"

namespace vpprof
{

SaturatingClassifier::SaturatingClassifier(unsigned bits, unsigned initial)
    : bits_(bits),
      initial_(initial)
{
}

SaturatingCounter &
SaturatingClassifier::counterFor(uint64_t pc)
{
    Slot &slot = counters_.at(pc);
    if (!slot.valid) {
        slot.valid = true;
        slot.counter = SaturatingCounter(bits_, initial_);
        ++tracked_;
    }
    return slot.counter;
}

bool
SaturatingClassifier::shouldPredict(uint64_t pc, Directive)
{
    return counterFor(pc).predictTaken();
}

void
SaturatingClassifier::train(uint64_t pc, bool correct)
{
    SaturatingCounter &counter = counterFor(pc);
    if (correct)
        counter.increment();
    else
        counter.decrement();
}

} // namespace vpprof
