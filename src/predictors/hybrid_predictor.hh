/**
 * @file
 * The hybrid two-table predictor the profile-guided scheme enables
 * (Subsections 3.1 point 4 and 3.2): a small stride table for the
 * instructions tagged "stride" and a larger last-value table for those
 * tagged "last-value". Steering is by opcode directive, so the extra
 * stride field is never wasted on last-value-patterned instructions.
 */

#ifndef VPPROF_PREDICTORS_HYBRID_PREDICTOR_HH
#define VPPROF_PREDICTORS_HYBRID_PREDICTOR_HH

#include "predictors/last_value_predictor.hh"
#include "predictors/stride_predictor.hh"
#include "predictors/value_predictor.hh"

namespace vpprof
{

/** Geometry of the two sub-tables. */
struct HybridConfig
{
    /** Stride sub-table (paper suggests a relatively small one). */
    PredictorConfig stride{.numEntries = 128, .associativity = 2,
                           .counterBits = 0, .counterInit = 0};

    /** Last-value sub-table (the larger one). */
    PredictorConfig lastValue{.numEntries = 512, .associativity = 2,
                              .counterBits = 0, .counterInit = 0};
};

/**
 * Hybrid predictor steered by directives.
 *
 * An instruction tagged Stride uses (and allocates in) the stride table;
 * one tagged LastValue uses the last-value table. Untagged instructions
 * are never allocated; on lookup they probe both tables (stride first)
 * so the predictor still functions if a caller feeds untagged pcs.
 */
class HybridPredictor : public ValuePredictor
{
  public:
    explicit HybridPredictor(const HybridConfig &config = {});

    std::string_view name() const override { return "hybrid"; }

    Prediction predict(uint64_t pc,
                       Directive hint = Directive::None) override;

    void update(uint64_t pc, int64_t actual, bool correct,
                Directive hint = Directive::None,
                bool allocate = true) override;

    /**
     * One record with a single probe of the steered table: predict(),
     * then update() with `correct = hit && value == actual`.
     */
    Prediction
    step(uint64_t pc, int64_t actual, Directive hint, bool allocate)
    {
        switch (hint) {
          case Directive::Stride:
            return stride_.step(pc, actual, allocate);
          case Directive::LastValue:
            return last_.step(pc, actual, allocate);
          case Directive::None:
            break;
        }
        // Untagged: use whichever table already tracks the pc (stride
        // first), never allocating.
        if (auto *entry = stride_.table_.lookup(pc))
            return stride_.stepEntry(entry, pc, actual, false);
        return last_.step(pc, actual, false);
    }

    void reset() override;

    size_t occupancy() const override;
    uint64_t evictions() const override;

    /** Sub-predictor access for reports and tests. */
    const StridePredictor &strideTable() const { return stride_; }
    const LastValuePredictor &lastValueTable() const { return last_; }

  private:
    StridePredictor stride_;
    LastValuePredictor last_;
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_HYBRID_PREDICTOR_HH
