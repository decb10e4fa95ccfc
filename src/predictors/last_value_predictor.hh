/**
 * @file
 * The last-value predictor of Lipasti et al. (references [9], [10] of
 * the paper): predicts that an instruction will reproduce the
 * destination value it generated most recently.
 */

#ifndef VPPROF_PREDICTORS_LAST_VALUE_PREDICTOR_HH
#define VPPROF_PREDICTORS_LAST_VALUE_PREDICTOR_HH

#include "predictors/counter_policy.hh"
#include "predictors/predictor_table.hh"
#include "predictors/value_predictor.hh"

namespace vpprof
{

/**
 * Last-value predictor. Each entry holds the tag and the last seen
 * destination value (Figure 2.1, left), plus an optional per-entry
 * saturating counter when configured as the hardware-classified variant.
 */
class LastValuePredictor : public ValuePredictor
{
  public:
    explicit LastValuePredictor(const PredictorConfig &config)
        : config_(config), table_(config.numEntries, config.associativity)
    {
    }

    std::string_view name() const override { return "last-value"; }

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

    /** One record with a single table probe (see StridePredictor). */
    Prediction
    step(uint64_t pc, int64_t actual, bool allocate = true)
    {
        Entry *entry = table_.lookup(pc);
        if (!entry) {
            if (allocate)
                seed(table_.allocate(pc), actual);
            return {};
        }
        Prediction pred = predictionFrom(*entry);
        train(*entry, actual, pred.value == actual);
        return pred;
    }

    void reset() override { table_.clear(); }

    size_t occupancy() const override { return table_.occupancy(); }
    uint64_t evictions() const override { return table_.evictions(); }

  private:
    /** A table entry exists only once a value has been observed. */
    struct Entry
    {
        int64_t lastValue = 0;
        uint8_t counter = 0;
    };

    Prediction
    predictionFrom(const Entry &entry) const
    {
        Prediction pred;
        pred.hit = true;
        pred.value = entry.lastValue;
        pred.counterApproves = counterApproves(config_, entry.counter);
        return pred;
    }

    void
    seed(Entry &entry, int64_t actual) const
    {
        entry.counter = initialCounter(config_);
        entry.lastValue = actual;
    }

    void
    train(Entry &entry, int64_t actual, bool correct) const
    {
        trainCounter(config_, entry.counter, correct);
        entry.lastValue = actual;
    }

    PredictorConfig config_;
    PredictorTable<Entry> table_;

    friend class HybridPredictor;
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_LAST_VALUE_PREDICTOR_HH
