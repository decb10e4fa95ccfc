/**
 * @file
 * Streaming evaluators: the per-record measurement loops of Section 5,
 * factored out of the experiment free functions into reusable
 * TraceSinks so the same code runs attached directly to a Machine
 * (one-shot evaluation) or replayed from a Session's cached trace
 * (trace-once, evaluate-many). Several evaluators share one decode
 * pass through an EvaluatorBank, which also shares their per-record
 * work (core/batch_replay.hh).
 *
 * Re-entrancy contract: every evaluator owns its predictor tables and
 * counters; nothing here touches global state, so concurrent
 * evaluations are safe as long as each thread drives its own evaluator
 * instances (and its own Classifier — classifiers hold run-time
 * counters too). A copied ClassificationEvaluator shares its stride
 * history copy-on-write with the original, so drive both from one
 * thread.
 */

#ifndef VPPROF_CORE_EVALUATORS_HH
#define VPPROF_CORE_EVALUATORS_HH

#include <memory>

#include "core/batch_replay.hh"
#include "core/experiment.hh"
#include "predictors/hybrid_predictor.hh"
#include "predictors/stride_predictor.hh"
#include "vm/trace.hh"
#include "vm/trace_block.hh"

namespace vpprof
{

/**
 * Rewrites each record's directive from a (possibly annotated) static
 * program before forwarding to an inner sink.
 *
 * Directives are pure metadata: they never change control flow or
 * computed values, only the `directive` field the Machine copies into
 * each record. One raw trace captured from the un-annotated program
 * therefore replays for *any* annotation of the same program — the
 * observation the trace-once Session architecture rests on.
 */
class DirectiveOverrideSink : public TraceSink
{
  public:
    /** @param program Annotation source; held by reference, not owned. */
    DirectiveOverrideSink(const Program &program, TraceSink *inner)
        : program_(program), inner_(inner)
    {
    }

    void
    record(const TraceRecord &rec) override
    {
        TraceRecord out = rec;
        out.directive = program_.at(rec.pc).directive;
        inner_->record(out);
    }

  private:
    const Program &program_;
    TraceSink *inner_;
};

/**
 * Whose directives a tagged-only evaluator has stepped. Skipping the
 * untagged records is exact only while every record stepped so far
 * carried one annotation's directives: then an untagged pc was never
 * allocated, and its probe is a miss with no side effects.
 */
class DirectiveHistory
{
  public:
    /** May the next block step only the producers `annotation` tags?
     *  Binds the history to it when so. */
    bool
    claim(const Program *annotation)
    {
        if (mixed_ || (source_ != nullptr && source_ != annotation))
            return false;
        source_ = annotation;
        return true;
    }

    /** Every record of some other stream was stepped. */
    void mix() { mixed_ = true; }

  private:
    const Program *source_ = nullptr;
    bool mixed_ = false;
};

/**
 * The classification-accuracy loop of Subsection 5.1: an infinite
 * stride predictor attempts every value-producing instruction; the
 * classifier rules each attempt in or out.
 *
 * The predictor never reads a directive, so in an EvaluatorBank every
 * classification slot with the same history reads one shared outcome
 * column; a directive-only classifier under an annotation folds per-pc
 * tallies instead of visiting records.
 */
class ClassificationEvaluator : public TraceSink, public SharedBlockSink
{
  public:
    /** @param classifier Ruled-in/out decisions; held by reference. */
    explicit ClassificationEvaluator(Classifier &classifier);

    void record(const TraceRecord &rec) override;

    /** Column-batch path; bit-identical to record-at-a-time replay. */
    void consumeBlock(const TraceBlockView &block) override;

    BankShare bankShare() override;
    void consumeShared(const SharedBlock &shared) override;

    const ClassificationAccuracy &result() const { return acc_; }

  private:
    /** The history, copied first if a bank slot shares it. */
    StridePredictor &ownPredictor();

    /** One hit: the classifier's verdict, the counts, its training. */
    void
    count(uint64_t pc, bool correct, Directive directive)
    {
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

    Classifier &classifier_;
    /** Copy-on-write: bank slots with the same history share it. */
    std::shared_ptr<StridePredictor> predictor_;
    ClassificationAccuracy acc_;
};

/**
 * The finite-table loop of Subsection 5.2: a finite stride predictor
 * driven either by per-entry saturating counters (VpPolicy::Fsm) or by
 * opcode directives with allocate-tagged-only (VpPolicy::Profile).
 * Under an annotation in an EvaluatorBank, the Profile policy steps
 * only the tagged producers.
 */
class FiniteTableEvaluator : public TraceSink, public SharedBlockSink
{
  public:
    FiniteTableEvaluator(VpPolicy policy, const PredictorConfig &config);

    void record(const TraceRecord &rec) override;

    /** Column-batch path; bit-identical to record-at-a-time replay. */
    void consumeBlock(const TraceBlockView &block) override;

    BankShare bankShare() override;
    void consumeShared(const SharedBlock &shared) override;

    /** Stats so far (evictions included). */
    FiniteTableStats result() const;

  private:
    void step(uint64_t pc, int64_t value, Directive directive);

    VpPolicy policy_;
    StridePredictor predictor_;
    FiniteTableStats stats_;
    DirectiveHistory history_;
};

/**
 * The hybrid two-table loop (Section 3.2's proposal): stride plus
 * last-value sub-tables, steered and allocated purely by directives.
 * Under an annotation in an EvaluatorBank it steps only the tagged
 * producers.
 */
class HybridTableEvaluator : public TraceSink, public SharedBlockSink
{
  public:
    explicit HybridTableEvaluator(const HybridConfig &config);

    void record(const TraceRecord &rec) override;

    /** Column-batch path; bit-identical to record-at-a-time replay. */
    void consumeBlock(const TraceBlockView &block) override;

    BankShare bankShare() override;
    void consumeShared(const SharedBlock &shared) override;

    FiniteTableStats result() const;

  private:
    void step(uint64_t pc, int64_t value, Directive directive);

    HybridPredictor predictor_;
    FiniteTableStats stats_;
    DirectiveHistory history_;
};

} // namespace vpprof

#endif // VPPROF_CORE_EVALUATORS_HH
