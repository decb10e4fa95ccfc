/**
 * @file
 * The hardware-only classification baseline: one saturating counter per
 * instruction, incremented on a correct prediction and decremented on an
 * incorrect one (Subsection 2.2). This is the "FSM" series of Figures
 * 5.1-5.4.
 */

#ifndef VPPROF_PREDICTORS_SATURATING_CLASSIFIER_HH
#define VPPROF_PREDICTORS_SATURATING_CLASSIFIER_HH

#include "common/pc_indexed.hh"
#include "common/saturating_counter.hh"
#include "predictors/classifier.hh"

namespace vpprof
{

/**
 * An unbounded set of per-pc saturating counters, matching the
 * "infinite set of saturated counters" assumption of Subsection 5.1.
 * (In the finite-table experiments the counter is instead embedded in
 * the prediction-table entry via PredictorConfig::counterBits.)
 */
class SaturatingClassifier : public Classifier
{
  public:
    /**
     * @param bits Counter width (2 reproduces the paper's baseline).
     * @param initial Counter value assigned to a newly seen pc.
     */
    explicit SaturatingClassifier(unsigned bits = 2, unsigned initial = 1);

    std::string_view name() const override { return "saturating-fsm"; }

    bool shouldPredict(uint64_t pc, Directive d) override;

    /** The hardware scheme admits every candidate. */
    bool shouldAllocate(uint64_t, Directive) override { return true; }

    void train(uint64_t pc, bool correct) override;

    void
    reset() override
    {
        counters_.clear();
        tracked_ = 0;
    }

    /** Number of distinct pcs tracked. */
    size_t trackedInstructions() const { return tracked_; }

  private:
    /** A pc's counter; `valid` once the pc has been seen. */
    struct Slot
    {
        bool valid = false;
        SaturatingCounter counter{};
    };

    SaturatingCounter &counterFor(uint64_t pc);

    unsigned bits_;
    unsigned initial_;
    PcIndexed<Slot> counters_;
    size_t tracked_ = 0;
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_SATURATING_CLASSIFIER_HH
