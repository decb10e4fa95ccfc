#include "core/batch_replay.hh"

#include "common/logging.hh"

namespace vpprof
{

EvaluatorBank::Slot &
EvaluatorBank::addSlot(const Program *annotation)
{
    Slot &slot = slots_.emplace_back();
    if (annotation == nullptr)
        return slot;
    for (size_t i = 0; i < annotations_.size(); ++i) {
        if (annotations_[i].program == annotation) {
            slot.annotation = static_cast<int>(i);
            return slot;
        }
    }
    // A dense directive byte per pc: the per-block column fill is one
    // table load per record instead of an out-of-line Program::at.
    Annotation &a = annotations_.emplace_back();
    a.program = annotation;
    for (const Instruction &inst : annotation->instructions())
        a.byPc.push_back(static_cast<uint8_t>(inst.directive));
    a.column.resize(kTraceBlockCapacity);
    slot.annotation = static_cast<int>(annotations_.size() - 1);
    return slot;
}

int
EvaluatorBank::strideGroupFor(std::shared_ptr<StridePredictor> &history)
{
    if (history == nullptr)
        vpprof_panic("EvaluatorBank::addBlockSink: null stride history");
    for (size_t g = 0; g < strideGroups_.size(); ++g) {
        std::shared_ptr<StridePredictor> &shared =
            strideGroups_[g].predictor;
        if (history == shared)
            return static_cast<int>(g);
        // Two empty infinite tables are the same history: merge them.
        if (history->occupancy() == 0 && shared->occupancy() == 0) {
            history = shared;
            return static_cast<int>(g);
        }
    }
    StrideGroup &group = strideGroups_.emplace_back();
    group.predictor = history;
    group.outcome.resize(kTraceBlockCapacity);
    group.tallies.reserve(kTraceBlockCapacity);
    return static_cast<int>(strideGroups_.size() - 1);
}

void
EvaluatorBank::addRecordSink(TraceSink *sink, const Program *annotation)
{
    if (sink == nullptr)
        vpprof_panic("EvaluatorBank::addRecordSink: null sink");
    addSlot(annotation).sink = sink;
}

void
EvaluatorBank::addBlockSink(TraceBlockSink *sink, const Program *annotation)
{
    if (sink == nullptr)
        vpprof_panic("EvaluatorBank::addBlockSink: null sink");
    addSlot(annotation).block = sink;
}

void
EvaluatorBank::addBlockSink(SharedBlockSink *sink,
                            const Program *annotation)
{
    if (sink == nullptr)
        vpprof_panic("EvaluatorBank::addBlockSink: null sink");
    BankShare share = sink->bankShare();
    Slot &slot = addSlot(annotation);
    slot.shared = sink;
    // Tallies and tagged lists assume a directive constant per pc,
    // which only an annotation guarantees.
    bool perPc = slot.annotation >= 0;
    if (share.infiniteStride != nullptr) {
        slot.strideGroup = strideGroupFor(*share.infiniteStride);
        StrideGroup &group = strideGroups_[slot.strideGroup];
        ++group.members;
        slot.tallies = share.directiveOnly && perPc;
        group.wantTallies |= slot.tallies;
    }
    slot.tagged = share.taggedOnly && perPc;
    if (slot.tagged)
        annotations_[slot.annotation].tagged.resize(kTraceBlockCapacity);
}

void
EvaluatorBank::stepStrideGroup(StrideGroup &group,
                               const TraceBlockView &block)
{
    StridePredictor &predictor = *group.predictor;
    uint8_t *out = group.outcome.data();
    for (uint32_t i = 0; i < block.count; ++i) {
        StrideOutcome o = StrideOutcome::Miss;
        if (block.writesReg[i]) {
            Prediction pred = predictor.step(block.pc[i], block.value[i]);
            if (pred.hit)
                o = pred.value == block.value[i] ? StrideOutcome::Correct
                                                 : StrideOutcome::Wrong;
        }
        out[i] = static_cast<uint8_t>(o);
    }
    if (!group.wantTallies)
        return;
    group.tallies.clear();
    for (uint32_t i = 0; i < block.count; ++i) {
        if (out[i] == static_cast<uint8_t>(StrideOutcome::Miss))
            continue;
        uint32_t &pos = tallyIndex_.at(block.pc[i]);
        if (pos == 0) {
            group.tallies.push_back({block.pc[i], 0, 0});
            pos = static_cast<uint32_t>(group.tallies.size());
        }
        PcTally &t = group.tallies[pos - 1];
        if (out[i] == static_cast<uint8_t>(StrideOutcome::Correct))
            ++t.corrects;
        else
            ++t.wrongs;
    }
    for (const PcTally &t : group.tallies)
        tallyIndex_.at(t.pc) = 0;
}

void
EvaluatorBank::consumeBlock(const TraceBlockView &block)
{
    uint32_t producers = 0;
    for (uint32_t i = 0; i < block.count; ++i)
        producers += block.writesReg[i];

    // Rewrite the directive column once per distinct annotation
    // program; every slot sharing that program reuses the fill.
    for (Annotation &a : annotations_) {
        const uint8_t *byPc = a.byPc.data();
        const uint64_t size = a.byPc.size();
        uint8_t *col = a.column.data();
        for (uint32_t i = 0; i < block.count; ++i) {
            uint64_t pc = block.pc[i];
            if (pc >= size)
                vpprof_panic("EvaluatorBank: pc ", pc,
                             " out of range in ", a.program->name());
            col[i] = byPc[pc];
        }
        if (!a.tagged.empty()) {
            uint32_t n = 0;
            for (uint32_t i = 0; i < block.count; ++i) {
                a.tagged[n] = i;
                n += block.writesReg[i] & (col[i] != 0);
            }
            a.numTagged = n;
        }
    }

    // One infinite stride pass per shared history — valid only while
    // nothing outside this bank's slots holds it.
    for (StrideGroup &group : strideGroups_) {
        group.stepped = group.predictor.use_count() ==
                        static_cast<long>(group.members) + 1;
        if (group.stepped)
            stepStrideGroup(group, block);
    }

    for (const Slot &slot : slots_) {
        TraceBlockView view = block;
        const Annotation *a = slot.annotation >= 0
            ? &annotations_[slot.annotation] : nullptr;
        if (a != nullptr)
            view.directive = a->column.data();
        if (slot.shared != nullptr) {
            SharedBlock shared;
            shared.view = view;
            shared.producers = producers;
            if (a != nullptr) {
                shared.annotation = a->program;
                shared.directiveByPc = a->byPc.data();
            }
            if (slot.strideGroup >= 0) {
                const StrideGroup &group = strideGroups_[slot.strideGroup];
                if (group.stepped) {
                    shared.strideOutcome = group.outcome.data();
                    if (slot.tallies) {
                        shared.tallies = group.tallies.data();
                        shared.numTallies =
                            static_cast<uint32_t>(group.tallies.size());
                    }
                }
            }
            if (slot.tagged) {
                shared.tagged = a->tagged.data();
                shared.numTagged = a->numTagged;
            }
            slot.shared->consumeShared(shared);
        } else if (slot.block != nullptr) {
            slot.block->consumeBlock(view);
        } else {
            for (uint32_t i = 0; i < view.count; ++i)
                slot.sink->record(view.record(i));
        }
    }
}

} // namespace vpprof
