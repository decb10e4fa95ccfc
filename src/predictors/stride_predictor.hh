/**
 * @file
 * The stride predictor of Gabbay & Mendelson (references [4], [5]):
 * predicts last value + stride, the stride being the difference of the
 * two most recent destination values (Figure 2.1, right).
 */

#ifndef VPPROF_PREDICTORS_STRIDE_PREDICTOR_HH
#define VPPROF_PREDICTORS_STRIDE_PREDICTOR_HH

#include "predictors/counter_policy.hh"
#include "predictors/predictor_table.hh"
#include "predictors/value_predictor.hh"

namespace vpprof
{

/**
 * Stride predictor. Until two values have been observed the stride field
 * is zero, so the predictor degenerates to last-value — matching the
 * "stride field is always determined upon the subtraction of two recent
 * consecutive destination values" definition of Subsection 2.1.
 */
class StridePredictor : public ValuePredictor
{
  public:
    explicit StridePredictor(const PredictorConfig &config)
        : config_(config), table_(config.numEntries, config.associativity)
    {
    }

    std::string_view name() const override { return "stride"; }

    Prediction
    predict(uint64_t pc, Directive = Directive::None) override
    {
        const Entry *entry = table_.lookup(pc);
        return entry ? predictionFrom(*entry) : Prediction{};
    }

    void
    update(uint64_t pc, int64_t actual, bool correct,
           Directive = Directive::None, bool allocate = true) override
    {
        if (Entry *entry = table_.lookup(pc))
            train(*entry, actual, correct);
        else if (allocate)
            seed(table_.allocate(pc), actual);
    }

    /**
     * One record with a single table probe: the prediction predict()
     * would return, then the update() that follows it with
     * `correct = hit && value == actual`.
     */
    Prediction
    step(uint64_t pc, int64_t actual, bool allocate = true)
    {
        return stepEntry(table_.lookup(pc), pc, actual, allocate);
    }

    void reset() override { table_.clear(); }

    size_t occupancy() const override { return table_.occupancy(); }
    uint64_t evictions() const override { return table_.evictions(); }

  private:
    /** A table entry exists only once a value has been observed. */
    struct Entry
    {
        int64_t lastValue = 0;
        int64_t stride = 0;
        uint8_t counter = 0;
    };

    /** step() once `entry` (nullptr on a miss) has been looked up. */
    Prediction
    stepEntry(Entry *entry, uint64_t pc, int64_t actual, bool allocate)
    {
        if (!entry) {
            if (allocate)
                seed(table_.allocate(pc), actual);
            return {};
        }
        Prediction pred = predictionFrom(*entry);
        train(*entry, actual, pred.value == actual);
        return pred;
    }

    Prediction
    predictionFrom(const Entry &entry) const
    {
        Prediction pred;
        pred.hit = true;
        pred.value = static_cast<int64_t>(
            static_cast<uint64_t>(entry.lastValue) +
            static_cast<uint64_t>(entry.stride));
        pred.usedNonZeroStride = entry.stride != 0;
        pred.counterApproves = counterApproves(config_, entry.counter);
        return pred;
    }

    void
    seed(Entry &entry, int64_t actual) const
    {
        entry.counter = initialCounter(config_);
        entry.stride = 0;
        entry.lastValue = actual;
    }

    void
    train(Entry &entry, int64_t actual, bool correct) const
    {
        trainCounter(config_, entry.counter, correct);
        entry.stride = static_cast<int64_t>(
            static_cast<uint64_t>(actual) -
            static_cast<uint64_t>(entry.lastValue));
        entry.lastValue = actual;
    }

    PredictorConfig config_;
    PredictorTable<Entry> table_;

    friend class HybridPredictor;
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_STRIDE_PREDICTOR_HH
