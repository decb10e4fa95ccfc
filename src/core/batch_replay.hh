/**
 * @file
 * Batch replay: decode each cached trace block ONCE and fan it out to
 * many evaluators simultaneously — the paper's one-profile-serves-many
 * premise applied to our own replay layer. Where a configuration
 * sweep used to stream the same trace K times (once per evaluator,
 * each behind its own record-copying DirectiveOverrideSink), an
 * EvaluatorBank streams it once: the directive column is rewritten
 * per distinct annotation program (a column fill, not a per-record
 * copy), and each evaluator consumes the shared SoA view.
 *
 * Three consumer shapes share one fan-out:
 *  - block sinks (TraceBlockSink) receive the column view directly;
 *  - shared block sinks (SharedBlockSink — the evaluators) also
 *    receive the per-record work the bank computed once for every
 *    slot: the infinite stride outcome, per-pc hit tallies, the
 *    tagged producers of their annotation;
 *  - record sinks (any existing TraceSink, e.g. the ILP dataflow
 *    engine) receive re-assembled records from the same decoded block.
 *
 * BlockAssembler is the bridge in the other direction: it turns any
 * record-level source (a v1/v2 trace file, a VM regeneration, the
 * repository's recovery ladder) into blocks feeding the same bank, so
 * every replay source — resident columnar, v3 file, compat formats,
 * fault-recovery tails — drives evaluators through one code path and
 * stays bit-identical to serial replay by construction.
 */

#ifndef VPPROF_CORE_BATCH_REPLAY_HH
#define VPPROF_CORE_BATCH_REPLAY_HH

#include <memory>
#include <vector>

#include "common/pc_indexed.hh"
#include "isa/program.hh"
#include "predictors/stride_predictor.hh"
#include "vm/trace_block.hh"

namespace vpprof
{

/** What the shared infinite stride predictor did on one record. */
enum class StrideOutcome : uint8_t
{
    Miss = 0,     ///< no entry, or the record writes no register
    Wrong = 1,    ///< hit, predicted value differs from the actual
    Correct = 2,  ///< hit, predicted value equals the actual
};

/** A pc's hit counts in one block, by StrideOutcome. */
struct PcTally
{
    uint64_t pc = 0;
    uint32_t corrects = 0;
    uint32_t wrongs = 0;
};

/**
 * What a SharedBlockSink declares it can take from an EvaluatorBank
 * instead of stepping every record itself.
 */
struct BankShare
{
    /**
     * The slot's infinite stride predictor history. Slots whose
     * histories are the same object are stepped once per block by the
     * bank, which hands each the outcome column. Fresh histories are
     * merged into one object at registration; the sink must copy the
     * object before stepping it on its own while others hold it.
     */
    std::shared_ptr<StridePredictor> *infiniteStride = nullptr;
    /**
     * The slot's verdict on a hit depends only on the directive and
     * trains nothing, so with a directive constant per pc it can
     * fold per-pc hit tallies instead of visiting records.
     */
    bool directiveOnly = false;
    /**
     * The slot steps only tagged producers; an untagged record of a
     * pc its tables never allocated is a miss with no side effects.
     */
    bool taggedOnly = false;
};

/**
 * One block with the per-block work an EvaluatorBank computed once for
 * all of its slots. Every pointer is valid for one consumeShared call.
 */
struct SharedBlock
{
    /** The block, with the slot's directive column applied. */
    TraceBlockView view;
    /** The slot's annotation, or nullptr when the trace's own
     *  directives apply (then they may vary per record). */
    const Program *annotation = nullptr;
    /** The annotation's directive byte per pc (null with no
     *  annotation); every pc of the block indexes it. */
    const uint8_t *directiveByPc = nullptr;

    /** Per record, a StrideOutcome of the slot's stride history;
     *  null when the bank could not step it for this slot. */
    const uint8_t *strideOutcome = nullptr;
    /** Hit tallies of every pc with a hit in the block, in order of
     *  first hit; set only with strideOutcome, an annotation and a
     *  slot that declared directiveOnly. */
    const PcTally *tallies = nullptr;
    uint32_t numTallies = 0;

    /** Records that write a register. */
    uint32_t producers = 0;
    /** Indices of the producers the annotation tags, in trace order;
     *  null unless the slot declared taggedOnly and has an
     *  annotation. */
    const uint32_t *tagged = nullptr;
    uint32_t numTagged = 0;
};

/**
 * A block consumer whose per-record work an EvaluatorBank can share
 * with other slots. consumeShared() must leave the sink exactly as
 * consumeBlock(shared.view) would; a sink that cannot use what the
 * bank computed falls back to that.
 */
class SharedBlockSink : public TraceBlockSink
{
  public:
    /** What this sink can take from the bank; read at registration. */
    virtual BankShare bankShare() = 0;

    virtual void consumeShared(const SharedBlock &shared) = 0;
};

/**
 * A set of trace consumers sharing one decode pass. Each slot
 * optionally names an annotation Program whose directives replace the
 * trace's own (the column form of DirectiveOverrideSink); slots
 * naming the same Program share one rewritten column per block. The
 * annotation is read when the slot is registered.
 *
 * Slots added as SharedBlockSinks also share per-record work
 * (DESIGN.md §12): one infinite stride pass per block for every slot
 * with the same stride history, per-pc hit tallies for
 * directive-only classifiers, and the list of tagged producers per
 * annotation. All of it happens inside each consumeBlock() call.
 *
 * Not thread-safe: one bank drives one replay pass. Records are
 * delivered to every slot in registration order, in trace order —
 * exactly the stream a serial replay would deliver.
 */
class EvaluatorBank : public TraceBlockSink
{
  public:
    /** Add a record-level consumer (assembled per record). */
    void addRecordSink(TraceSink *sink,
                       const Program *annotation = nullptr);

    /** Add a column-level consumer (the fast path). */
    void addBlockSink(TraceBlockSink *sink,
                      const Program *annotation = nullptr);

    /** Add a column-level consumer that shares work across slots. */
    void addBlockSink(SharedBlockSink *sink,
                      const Program *annotation = nullptr);

    size_t size() const { return slots_.size(); }

    void consumeBlock(const TraceBlockView &block) override;

  private:
    struct Slot
    {
        TraceSink *sink = nullptr;       // exactly one of sink/block/shared
        TraceBlockSink *block = nullptr;
        SharedBlockSink *shared = nullptr;
        int annotation = -1;             // index into annotations_; -1 raw
        int strideGroup = -1;            // index into strideGroups_
        bool tallies = false;            // hand over the group's tallies
        bool tagged = false;             // hand over the tagged producers
    };

    /** A registered annotation and its per-block columns. */
    struct Annotation
    {
        const Program *program = nullptr;
        std::vector<uint8_t> byPc;       // directive per pc
        std::vector<uint8_t> column;     // directive per record
        std::vector<uint32_t> tagged;    // tagged producer indices; empty
                                         // when no slot wants them
        uint32_t numTagged = 0;
    };

    /** Slots stepping one shared infinite stride history. */
    struct StrideGroup
    {
        std::shared_ptr<StridePredictor> predictor;
        size_t members = 0;
        bool wantTallies = false;
        bool stepped = false;            // this block
        std::vector<uint8_t> outcome;    // StrideOutcome per record
        std::vector<PcTally> tallies;
    };

    Slot &addSlot(const Program *annotation);
    int strideGroupFor(std::shared_ptr<StridePredictor> &history);
    void stepStrideGroup(StrideGroup &group, const TraceBlockView &block);

    std::vector<Slot> slots_;
    std::vector<Annotation> annotations_;
    std::vector<StrideGroup> strideGroups_;
    PcIndexed<uint32_t> tallyIndex_;     // pc -> tally position + 1
};

/**
 * TraceSink that regroups a record stream into blocks for a
 * TraceBlockSink (normally an EvaluatorBank). Call flush() after the
 * final record to deliver the partial tail block. Block boundaries
 * carry no meaning downstream, so a resumed recovery-ladder stream
 * re-blocked at different offsets is indistinguishable from the
 * original pass.
 */
class BlockAssembler : public TraceSink
{
  public:
    explicit BlockAssembler(TraceBlockSink *sink) : sink_(sink) {}

    ~BlockAssembler() override { flush(); }

    void
    record(const TraceRecord &rec) override
    {
        uint32_t i = count_;
        scratch_.seq[i] = rec.seq;
        scratch_.pc[i] = rec.pc;
        scratch_.op[i] = static_cast<uint8_t>(rec.op);
        scratch_.directive[i] = static_cast<uint8_t>(rec.directive);
        scratch_.writesReg[i] = rec.writesReg ? 1 : 0;
        scratch_.dest[i] = rec.dest;
        scratch_.value[i] = rec.value;
        scratch_.numSrcs[i] = rec.numSrcs;
        scratch_.src0[i] = rec.srcs[0];
        scratch_.src1[i] = rec.srcs[1];
        scratch_.isMem[i] = rec.isMem ? 1 : 0;
        scratch_.memAddr[i] = rec.memAddr;
        if (++count_ == kTraceBlockCapacity)
            flush();
    }

    /** Deliver buffered records as a (possibly partial) block. */
    void
    flush()
    {
        if (count_ == 0)
            return;
        sink_->consumeBlock(scratch_.view(count_, scratch_.seq[0]));
        count_ = 0;
    }

  private:
    TraceBlockSink *sink_;
    TraceBlockScratch scratch_;
    uint32_t count_ = 0;
};

} // namespace vpprof

#endif // VPPROF_CORE_BATCH_REPLAY_HH
