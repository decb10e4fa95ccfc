/**
 * @file
 * The profile-guided classifier (Section 3.2): classification decisions
 * come entirely from the opcode directives the compiler inserted, so no
 * run-time training state exists and the saturating-counter hardware
 * becomes unnecessary.
 */

#ifndef VPPROF_PREDICTORS_PROFILE_CLASSIFIER_HH
#define VPPROF_PREDICTORS_PROFILE_CLASSIFIER_HH

#include "predictors/classifier.hh"

namespace vpprof
{

/**
 * Directive-driven classifier: predict and allocate exactly the
 * instructions the compiler tagged ("stride" or "last-value"); untagged
 * instructions are not recommended for value prediction.
 */
class ProfileClassifier : public Classifier
{
  public:
    ProfileClassifier() = default;

    std::string_view name() const override { return "profile"; }

    bool
    shouldPredict(uint64_t, Directive d) override
    {
        return d != Directive::None;
    }

    bool
    shouldAllocate(uint64_t, Directive d) override
    {
        return d != Directive::None;
    }

    /** No run-time training: the profile already decided. */
    void train(uint64_t, bool) override {}

    bool directiveOnly() const override { return true; }

    void reset() override {}
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_PROFILE_CLASSIFIER_HH
