/**
 * @file
 * Value-predictability classifiers (Subsection 2.2 and Section 3.2).
 *
 * A classifier answers two questions per dynamic instruction:
 *  - shouldPredict: take the predictor's suggested value, or ignore it?
 *  - shouldAllocate: is this instruction a candidate for occupying a
 *    prediction-table entry at all?
 *
 * The hardware-only baseline (SaturatingClassifier) answers from
 * run-time saturating counters and must allocate everything; the
 * profile-guided scheme (ProfileClassifier) answers from the compiler's
 * opcode directives and admits only tagged instructions.
 */

#ifndef VPPROF_PREDICTORS_CLASSIFIER_HH
#define VPPROF_PREDICTORS_CLASSIFIER_HH

#include <cstdint>
#include <string_view>

#include "isa/directive.hh"

namespace vpprof
{

/** Abstract classification mechanism. */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /** Mechanism name for reports. */
    virtual std::string_view name() const = 0;

    /**
     * Should the pipeline consume a prediction for the instruction at
     * pc (whose opcode carries directive d)?
     */
    virtual bool shouldPredict(uint64_t pc, Directive d) = 0;

    /** Is the instruction eligible to occupy a prediction-table entry? */
    virtual bool shouldAllocate(uint64_t pc, Directive d) = 0;

    /**
     * Feedback after the outcome is known.
     * @param correct The predictor's suggested value matched the actual
     *        outcome (whether or not the suggestion was consumed).
     */
    virtual void train(uint64_t pc, bool correct) = 0;

    /**
     * True when shouldPredict() depends only on the directive and
     * train() does nothing. A replay whose directive is constant per
     * pc may then ask once per pc instead of once per record.
     */
    virtual bool directiveOnly() const { return false; }

    /** Drop any run-time state. */
    virtual void reset() = 0;
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_CLASSIFIER_HH
