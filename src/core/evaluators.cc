#include "core/evaluators.hh"

#include "common/logging.hh"

namespace vpprof
{

ClassificationEvaluator::ClassificationEvaluator(Classifier &classifier)
    : classifier_(classifier),
      predictor_(infiniteConfig())
{
}

void
ClassificationEvaluator::step(uint64_t pc, int64_t value,
                              Directive directive)
{
    Prediction pred = predictor_.step(pc, value);
    bool correct = pred.hit && pred.value == value;
    if (pred.hit) {
        bool take = classifier_.shouldPredict(pc, directive);
        if (correct) {
            ++acc_.corrects;
            if (take)
                ++acc_.correctsAccepted;
        } else {
            ++acc_.mispredictions;
            if (!take)
                ++acc_.mispredictionsCaught;
        }
        classifier_.train(pc, correct);
    }
}

void
ClassificationEvaluator::record(const TraceRecord &rec)
{
    if (!rec.writesReg)
        return;
    step(rec.pc, rec.value, rec.directive);
}

void
ClassificationEvaluator::consumeBlock(const TraceBlockView &block)
{
    for (uint32_t i = 0; i < block.count; ++i) {
        if (!block.writesReg[i])
            continue;
        step(block.pc[i], block.value[i],
             static_cast<Directive>(block.directive[i]));
    }
}

FiniteTableEvaluator::FiniteTableEvaluator(VpPolicy policy,
                                           const PredictorConfig &config)
    : policy_(policy),
      predictor_(config)
{
    if (policy != VpPolicy::Fsm && policy != VpPolicy::Profile)
        vpprof_panic("evaluateFiniteTable: policy must be Fsm or "
                     "Profile");
}

void
FiniteTableEvaluator::step(uint64_t pc, int64_t value, Directive directive)
{
    ++stats_.producers;
    bool tagged = directive != Directive::None;
    bool candidate = policy_ == VpPolicy::Profile ? tagged : true;
    if (candidate)
        ++stats_.candidates;

    Prediction pred = predictor_.step(pc, value, candidate);
    bool use = policy_ == VpPolicy::Fsm
        ? pred.hit && pred.counterApproves
        : pred.hit && tagged;
    if (use) {
        if (pred.value == value)
            ++stats_.correctTaken;
        else
            ++stats_.incorrectTaken;
    }
}

void
FiniteTableEvaluator::record(const TraceRecord &rec)
{
    if (!rec.writesReg)
        return;
    step(rec.pc, rec.value, rec.directive);
}

void
FiniteTableEvaluator::consumeBlock(const TraceBlockView &block)
{
    for (uint32_t i = 0; i < block.count; ++i) {
        if (!block.writesReg[i])
            continue;
        step(block.pc[i], block.value[i],
             static_cast<Directive>(block.directive[i]));
    }
}

FiniteTableStats
FiniteTableEvaluator::result() const
{
    FiniteTableStats stats = stats_;
    stats.evictions = predictor_.evictions();
    return stats;
}

HybridTableEvaluator::HybridTableEvaluator(const HybridConfig &config)
    : predictor_(config)
{
}

void
HybridTableEvaluator::step(uint64_t pc, int64_t value, Directive directive)
{
    ++stats_.producers;
    bool tagged = directive != Directive::None;
    if (tagged)
        ++stats_.candidates;

    Prediction pred = predictor_.step(pc, value, directive, tagged);
    if (pred.hit && tagged) {
        if (pred.value == value)
            ++stats_.correctTaken;
        else
            ++stats_.incorrectTaken;
    }
}

void
HybridTableEvaluator::record(const TraceRecord &rec)
{
    if (!rec.writesReg)
        return;
    step(rec.pc, rec.value, rec.directive);
}

void
HybridTableEvaluator::consumeBlock(const TraceBlockView &block)
{
    for (uint32_t i = 0; i < block.count; ++i) {
        if (!block.writesReg[i])
            continue;
        step(block.pc[i], block.value[i],
             static_cast<Directive>(block.directive[i]));
    }
}

FiniteTableStats
HybridTableEvaluator::result() const
{
    FiniteTableStats stats = stats_;
    stats.evictions = predictor_.evictions();
    return stats;
}

} // namespace vpprof
