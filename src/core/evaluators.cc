#include "core/evaluators.hh"

#include "common/logging.hh"

namespace vpprof
{

namespace
{

/**
 * The tagged-only loop of a table that allocates and uses only tagged
 * producers: `step(i)` steps record i and returns its prediction.
 */
template <typename Step>
void
stepTagged(const SharedBlock &shared, FiniteTableStats &stats, Step step)
{
    stats.producers += shared.producers;
    stats.candidates += shared.numTagged;
    for (uint32_t k = 0; k < shared.numTagged; ++k) {
        uint32_t i = shared.tagged[k];
        Prediction pred = step(i);
        if (pred.hit) {
            if (pred.value == shared.view.value[i])
                ++stats.correctTaken;
            else
                ++stats.incorrectTaken;
        }
    }
}

} // namespace

ClassificationEvaluator::ClassificationEvaluator(Classifier &classifier)
    : classifier_(classifier),
      predictor_(std::make_shared<StridePredictor>(infiniteConfig()))
{
}

StridePredictor &
ClassificationEvaluator::ownPredictor()
{
    // Stepping a history that bank slots share would move theirs too.
    if (predictor_.use_count() > 1)
        predictor_ = std::make_shared<StridePredictor>(*predictor_);
    return *predictor_;
}

void
ClassificationEvaluator::record(const TraceRecord &rec)
{
    if (!rec.writesReg)
        return;
    Prediction pred = ownPredictor().step(rec.pc, rec.value);
    if (pred.hit)
        count(rec.pc, pred.value == rec.value, rec.directive);
}

void
ClassificationEvaluator::consumeBlock(const TraceBlockView &block)
{
    StridePredictor &predictor = ownPredictor();
    for (uint32_t i = 0; i < block.count; ++i) {
        if (!block.writesReg[i])
            continue;
        Prediction pred = predictor.step(block.pc[i], block.value[i]);
        if (pred.hit)
            count(block.pc[i], pred.value == block.value[i],
                  static_cast<Directive>(block.directive[i]));
    }
}

BankShare
ClassificationEvaluator::bankShare()
{
    BankShare share;
    share.infiniteStride = &predictor_;
    share.directiveOnly = classifier_.directiveOnly();
    return share;
}

void
ClassificationEvaluator::consumeShared(const SharedBlock &shared)
{
    if (shared.strideOutcome == nullptr) {
        consumeBlock(shared.view);
        return;
    }
    if (shared.tallies != nullptr) {
        // One verdict per pc: it depends only on the pc's directive.
        for (uint32_t k = 0; k < shared.numTallies; ++k) {
            const PcTally &t = shared.tallies[k];
            bool take = classifier_.shouldPredict(
                t.pc, static_cast<Directive>(shared.directiveByPc[t.pc]));
            acc_.corrects += t.corrects;
            acc_.mispredictions += t.wrongs;
            if (take)
                acc_.correctsAccepted += t.corrects;
            else
                acc_.mispredictionsCaught += t.wrongs;
        }
        return;
    }
    const TraceBlockView &block = shared.view;
    for (uint32_t i = 0; i < block.count; ++i) {
        auto o = static_cast<StrideOutcome>(shared.strideOutcome[i]);
        if (o != StrideOutcome::Miss)
            count(block.pc[i], o == StrideOutcome::Correct,
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
    history_.mix();
    if (!rec.writesReg)
        return;
    step(rec.pc, rec.value, rec.directive);
}

void
FiniteTableEvaluator::consumeBlock(const TraceBlockView &block)
{
    history_.mix();
    for (uint32_t i = 0; i < block.count; ++i) {
        if (!block.writesReg[i])
            continue;
        step(block.pc[i], block.value[i],
             static_cast<Directive>(block.directive[i]));
    }
}

BankShare
FiniteTableEvaluator::bankShare()
{
    BankShare share;
    share.taggedOnly = policy_ == VpPolicy::Profile;
    return share;
}

void
FiniteTableEvaluator::consumeShared(const SharedBlock &shared)
{
    if (shared.tagged == nullptr || !history_.claim(shared.annotation)) {
        consumeBlock(shared.view);
        return;
    }
    // Profile policy: only tagged producers are candidates, and only
    // a candidate's hit is used.
    const TraceBlockView &block = shared.view;
    stepTagged(shared, stats_, [&](uint32_t i) {
        return predictor_.step(block.pc[i], block.value[i]);
    });
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
    history_.mix();
    if (!rec.writesReg)
        return;
    step(rec.pc, rec.value, rec.directive);
}

void
HybridTableEvaluator::consumeBlock(const TraceBlockView &block)
{
    history_.mix();
    for (uint32_t i = 0; i < block.count; ++i) {
        if (!block.writesReg[i])
            continue;
        step(block.pc[i], block.value[i],
             static_cast<Directive>(block.directive[i]));
    }
}

BankShare
HybridTableEvaluator::bankShare()
{
    BankShare share;
    share.taggedOnly = true;
    return share;
}

void
HybridTableEvaluator::consumeShared(const SharedBlock &shared)
{
    if (shared.tagged == nullptr || !history_.claim(shared.annotation)) {
        consumeBlock(shared.view);
        return;
    }
    const TraceBlockView &block = shared.view;
    stepTagged(shared, stats_, [&](uint32_t i) {
        return predictor_.step(block.pc[i], block.value[i],
                               static_cast<Directive>(block.directive[i]),
                               true);
    });
}

FiniteTableStats
HybridTableEvaluator::result() const
{
    FiniteTableStats stats = stats_;
    stats.evictions = predictor_.evictions();
    return stats;
}

} // namespace vpprof
