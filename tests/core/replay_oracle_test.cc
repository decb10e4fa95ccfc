/**
 * @file
 * Differential test of the per-record replay loops against a naive
 * reference. A seeded random stream of (pc, value, directive) records
 * runs through every evaluator, the predictors' single-probe step()
 * and ProfileCollector; each result must equal a test-local std::map
 * implementation of the same loop that probes its table twice per
 * record (predict, then update), as the loops originally did. The
 * finite tables' eviction counts pin LRU equivalence: a single touch
 * per record orders the ways exactly like the two touches it replaced.
 * EvaluatorBank slots that share per-block work (one stride pass,
 * per-pc tallies, tagged-only stepping) must equal the same evaluators
 * replayed alone.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "core/batch_replay.hh"
#include "core/evaluators.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "profile/profile_collector.hh"

namespace vpprof
{
namespace
{

// ---------------------------------------------------------------------
// The reference: std::map storage, predict() and update() probe apart.

/** Map-backed table; finite geometry evicts the set's LRU pc. */
template <typename Payload>
class RefTable
{
  public:
    RefTable(size_t entries, size_t assoc)
        : sets_(entries == 0 ? 0 : entries / assoc), assoc_(assoc)
    {
    }

    Payload *
    lookup(uint64_t pc)
    {
        auto it = ways_.find(pc);
        if (it == ways_.end())
            return nullptr;
        it->second.lru = ++clock_;
        return &it->second.payload;
    }

    Payload &
    allocate(uint64_t pc)
    {
        if (sets_ != 0) {
            std::vector<uint64_t> resident;
            for (const auto &[p, way] : ways_)
                if (p % sets_ == pc % sets_)
                    resident.push_back(p);
            if (resident.size() == assoc_) {
                uint64_t victim = resident[0];
                for (uint64_t p : resident)
                    if (ways_[p].lru < ways_[victim].lru)
                        victim = p;
                ways_.erase(victim);
                ++evictions_;
            }
        }
        Way &way = ways_[pc];
        way = Way{};
        way.lru = ++clock_;
        return way.payload;
    }

    void
    clear()
    {
        ways_.clear();
        evictions_ = 0;
    }

    size_t occupancy() const { return ways_.size(); }
    uint64_t evictions() const { return evictions_; }

  private:
    struct Way
    {
        Payload payload{};
        uint64_t lru = 0;
    };

    size_t sets_;
    size_t assoc_;
    std::map<uint64_t, Way> ways_;
    uint64_t clock_ = 0;
    uint64_t evictions_ = 0;
};

/** Stride (or, with `strided` false, last-value) predictor. */
class RefPredictor
{
  public:
    RefPredictor(const PredictorConfig &cfg, bool strided)
        : cfg_(cfg), strided_(strided),
          table_(cfg.numEntries, cfg.associativity)
    {
    }

    Prediction
    predict(uint64_t pc)
    {
        Prediction pred;
        Entry *e = table_.lookup(pc);
        if (e == nullptr || !e->hasValue)
            return pred;
        pred.hit = true;
        pred.value = static_cast<int64_t>(
            static_cast<uint64_t>(e->lastValue) +
            static_cast<uint64_t>(e->stride));
        pred.usedNonZeroStride = e->stride != 0;
        pred.counterApproves =
            cfg_.counterBits > 0 &&
            e->counter >= (1u << (cfg_.counterBits - 1));
        return pred;
    }

    void
    update(uint64_t pc, int64_t actual, bool correct, bool allocate)
    {
        Entry *e = table_.lookup(pc);
        if (e == nullptr) {
            if (!allocate)
                return;
            e = &table_.allocate(pc);
            unsigned max = cfg_.counterBits == 0
                ? 0 : (1u << cfg_.counterBits) - 1;
            e->counter = cfg_.counterInit > max ? max : cfg_.counterInit;
        }
        if (e->hasValue) {
            if (cfg_.counterBits > 0) {
                unsigned max = (1u << cfg_.counterBits) - 1;
                if (correct && e->counter < max)
                    ++e->counter;
                else if (!correct && e->counter > 0)
                    --e->counter;
            }
            if (strided_)
                e->stride = static_cast<int64_t>(
                    static_cast<uint64_t>(actual) -
                    static_cast<uint64_t>(e->lastValue));
        }
        e->lastValue = actual;
        e->hasValue = true;
    }

    bool tracks(uint64_t pc) { return table_.lookup(pc) != nullptr; }
    void reset() { table_.clear(); }
    size_t occupancy() const { return table_.occupancy(); }
    uint64_t evictions() const { return table_.evictions(); }

  private:
    struct Entry
    {
        bool hasValue = false;
        int64_t lastValue = 0;
        int64_t stride = 0;
        unsigned counter = 0;
    };

    PredictorConfig cfg_;
    bool strided_;
    RefTable<Entry> table_;
};

/** The directive-steered two-table predictor. */
class RefHybrid
{
  public:
    explicit RefHybrid(const HybridConfig &cfg)
        : stride_(cfg.stride, true), last_(cfg.lastValue, false)
    {
    }

    Prediction
    predict(uint64_t pc, Directive hint)
    {
        if (hint == Directive::Stride)
            return stride_.predict(pc);
        if (hint == Directive::LastValue)
            return last_.predict(pc);
        Prediction pred = stride_.predict(pc);
        return pred.hit ? pred : last_.predict(pc);
    }

    void
    update(uint64_t pc, int64_t actual, bool correct, Directive hint,
           bool allocate)
    {
        if (hint == Directive::Stride)
            stride_.update(pc, actual, correct, allocate);
        else if (hint == Directive::LastValue)
            last_.update(pc, actual, correct, allocate);
        else if (stride_.tracks(pc))
            stride_.update(pc, actual, correct, false);
        else
            last_.update(pc, actual, correct, false);
    }

    void
    reset()
    {
        stride_.reset();
        last_.reset();
    }

    size_t occupancy() const
    {
        return stride_.occupancy() + last_.occupancy();
    }

    uint64_t evictions() const
    {
        return stride_.evictions() + last_.evictions();
    }

  private:
    RefPredictor stride_;
    RefPredictor last_;
};

// ---------------------------------------------------------------------
// The record stream.

/**
 * A seeded stream over a few dozen pcs. Each pc follows one value
 * pattern (constant, strided, alternating or random) and carries one
 * directive, overridden on a tenth of its records so the untagged
 * probe of a tracked pc is exercised; an eighth of the records write
 * no register.
 */
/** Distinct pcs in a makeStream() stream. */
constexpr uint64_t kStreamPcs = 48;

std::vector<TraceRecord>
makeStream(uint64_t seed, size_t n)
{
    constexpr uint64_t kPcs = kStreamPcs;
    Rng rng(seed);
    std::vector<int64_t> value(kPcs), step(kPcs);
    std::vector<int> pattern(kPcs);
    std::vector<Directive> tag(kPcs);
    for (uint64_t pc = 0; pc < kPcs; ++pc) {
        value[pc] = rng.nextInRange(-50, 50);
        step[pc] = rng.nextInRange(-3, 3);
        pattern[pc] = static_cast<int>(rng.nextBelow(4));
        tag[pc] = static_cast<Directive>(rng.nextBelow(3));
    }
    std::vector<TraceRecord> out;
    for (size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.seq = i;
        uint64_t pc = rng.nextBelow(kPcs);
        rec.pc = pc;
        rec.op = Opcode::Add;
        rec.writesReg = rng.nextBelow(8) != 0;
        rec.dest = 1;
        switch (pattern[pc]) {
          case 0:
            break;
          case 1:
            value[pc] += step[pc];
            break;
          case 2:
            value[pc] = -value[pc];
            break;
          default:
            value[pc] = rng.nextInRange(0, 3);
            break;
        }
        rec.value = rec.writesReg ? value[pc] : 0;
        rec.directive = rng.nextBelow(10) == 0
            ? static_cast<Directive>(rng.nextBelow(3)) : tag[pc];
        out.push_back(rec);
    }
    return out;
}

/** Feed a stream as whole blocks of `block` records. */
void
feedBlocks(const std::vector<TraceRecord> &stream, TraceBlockSink *sink)
{
    BlockAssembler assembler(sink);
    for (const TraceRecord &rec : stream)
        assembler.record(rec);
    assembler.flush();
}

PredictorConfig
finiteConfig(unsigned counter_bits)
{
    PredictorConfig cfg;
    cfg.numEntries = 16;
    cfg.associativity = 2;
    cfg.counterBits = counter_bits;
    cfg.counterInit = 1;
    return cfg;
}

HybridConfig
smallHybrid()
{
    HybridConfig cfg;
    cfg.stride.numEntries = 8;
    cfg.lastValue.numEntries = 16;
    return cfg;
}

void
expectSame(const Prediction &got, const Prediction &want, size_t i)
{
    EXPECT_EQ(got.hit, want.hit) << "record " << i;
    EXPECT_EQ(got.value, want.value) << "record " << i;
    EXPECT_EQ(got.usedNonZeroStride, want.usedNonZeroStride)
        << "record " << i;
    EXPECT_EQ(got.counterApproves, want.counterApproves)
        << "record " << i;
}

// ---------------------------------------------------------------------
// Predictors: step() against predict() + update() of the reference.

template <typename Predictor>
void
checkStep(Predictor &p, RefPredictor &ref,
          const std::vector<TraceRecord> &stream, bool allocate_tagged)
{
    for (size_t i = 0; i < stream.size(); ++i) {
        const TraceRecord &rec = stream[i];
        bool allocate =
            !allocate_tagged || rec.directive != Directive::None;
        Prediction want = ref.predict(rec.pc);
        ref.update(rec.pc, rec.value,
                   want.hit && want.value == rec.value, allocate);
        expectSame(p.step(rec.pc, rec.value, allocate), want, i);
    }
    EXPECT_EQ(p.occupancy(), ref.occupancy());
    EXPECT_EQ(p.evictions(), ref.evictions());
}

TEST(ReplayOracle, StridePredictorStepMatchesReference)
{
    std::vector<TraceRecord> stream = makeStream(11, 20000);
    for (PredictorConfig cfg :
         {infiniteConfig(), finiteConfig(0), finiteConfig(2)}) {
        for (bool allocate_tagged : {false, true}) {
            StridePredictor p(cfg);
            RefPredictor ref(cfg, true);
            checkStep(p, ref, stream, allocate_tagged);
            if (cfg.numEntries != 0) {
                EXPECT_GT(p.evictions(), 0u);
            }

            // A reset predictor replays like a fresh one.
            p.reset();
            RefPredictor fresh(cfg, true);
            checkStep(p, fresh, makeStream(12, 5000), allocate_tagged);
        }
    }
}

TEST(ReplayOracle, LastValuePredictorStepMatchesReference)
{
    std::vector<TraceRecord> stream = makeStream(21, 20000);
    for (PredictorConfig cfg : {infiniteConfig(), finiteConfig(2)}) {
        LastValuePredictor p(cfg);
        RefPredictor ref(cfg, false);
        checkStep(p, ref, stream, true);

        p.reset();
        RefPredictor fresh(cfg, false);
        checkStep(p, fresh, makeStream(22, 5000), true);
    }
}

TEST(ReplayOracle, HybridPredictorStepMatchesReference)
{
    HybridPredictor p(smallHybrid());
    RefHybrid ref(smallHybrid());
    for (uint64_t seed : {31, 32}) {
        std::vector<TraceRecord> stream = makeStream(seed, 20000);
        for (size_t i = 0; i < stream.size(); ++i) {
            const TraceRecord &rec = stream[i];
            bool tagged = rec.directive != Directive::None;
            Prediction want = ref.predict(rec.pc, rec.directive);
            ref.update(rec.pc, rec.value,
                       want.hit && want.value == rec.value,
                       rec.directive, tagged);
            expectSame(p.step(rec.pc, rec.value, rec.directive, tagged),
                       want, i);
        }
        EXPECT_EQ(p.occupancy(), ref.occupancy());
        EXPECT_EQ(p.evictions(), ref.evictions());
        EXPECT_GT(p.evictions(), 0u);
        p.reset();
        ref.reset();
        EXPECT_EQ(p.occupancy(), 0u);
    }
}

// ---------------------------------------------------------------------
// Evaluators: record() and consumeBlock() against the reference loops.

ClassificationAccuracy
refClassification(const std::vector<TraceRecord> &stream, bool fsm,
                  size_t *tracked)
{
    RefPredictor predictor(infiniteConfig(), true);
    std::map<uint64_t, SaturatingCounter> counters;
    ClassificationAccuracy acc;
    for (const TraceRecord &rec : stream) {
        if (!rec.writesReg)
            continue;
        Prediction pred = predictor.predict(rec.pc);
        bool correct = pred.hit && pred.value == rec.value;
        if (pred.hit) {
            SaturatingCounter &counter =
                counters.try_emplace(rec.pc, 2, 1).first->second;
            bool take = fsm ? counter.predictTaken()
                            : rec.directive != Directive::None;
            if (correct) {
                ++acc.corrects;
                if (take)
                    ++acc.correctsAccepted;
            } else {
                ++acc.mispredictions;
                if (!take)
                    ++acc.mispredictionsCaught;
            }
            if (correct)
                counter.increment();
            else
                counter.decrement();
        }
        predictor.update(rec.pc, rec.value, correct, true);
    }
    *tracked = counters.size();
    return acc;
}

void
expectSame(const ClassificationAccuracy &got,
           const ClassificationAccuracy &want)
{
    EXPECT_EQ(got.corrects, want.corrects);
    EXPECT_EQ(got.correctsAccepted, want.correctsAccepted);
    EXPECT_EQ(got.mispredictions, want.mispredictions);
    EXPECT_EQ(got.mispredictionsCaught, want.mispredictionsCaught);
}

TEST(ReplayOracle, ClassificationEvaluatorMatchesReference)
{
    std::vector<TraceRecord> stream = makeStream(41, 30000);
    size_t tracked = 0;
    ClassificationAccuracy fsm = refClassification(stream, true, &tracked);
    ASSERT_GT(fsm.mispredictionsCaught, 0u);

    SaturatingClassifier sat;
    ClassificationEvaluator by_record(sat);
    for (const TraceRecord &rec : stream)
        by_record.record(rec);
    expectSame(by_record.result(), fsm);
    EXPECT_EQ(sat.trackedInstructions(), tracked);

    // The reset classifier serves a block-fed pass like a fresh one.
    sat.reset();
    EXPECT_EQ(sat.trackedInstructions(), 0u);
    ClassificationEvaluator by_block(sat);
    feedBlocks(stream, &by_block);
    expectSame(by_block.result(), fsm);
    EXPECT_EQ(sat.trackedInstructions(), tracked);

    size_t unused = 0;
    ClassificationAccuracy prof =
        refClassification(stream, false, &unused);
    ProfileClassifier directives;
    ClassificationEvaluator profile(directives);
    feedBlocks(stream, &profile);
    expectSame(profile.result(), prof);
}

FiniteTableStats
refFiniteTable(const std::vector<TraceRecord> &stream, VpPolicy policy,
               const PredictorConfig &cfg)
{
    RefPredictor predictor(cfg, true);
    FiniteTableStats stats;
    for (const TraceRecord &rec : stream) {
        if (!rec.writesReg)
            continue;
        ++stats.producers;
        bool tagged = rec.directive != Directive::None;
        bool candidate = policy == VpPolicy::Profile ? tagged : true;
        if (candidate)
            ++stats.candidates;
        Prediction pred = predictor.predict(rec.pc);
        bool use = policy == VpPolicy::Fsm
            ? pred.hit && pred.counterApproves : pred.hit && tagged;
        bool correct = pred.hit && pred.value == rec.value;
        if (use)
            ++(correct ? stats.correctTaken : stats.incorrectTaken);
        predictor.update(rec.pc, rec.value, correct, candidate);
    }
    stats.evictions = predictor.evictions();
    return stats;
}

FiniteTableStats
refHybridTable(const std::vector<TraceRecord> &stream,
               const HybridConfig &cfg)
{
    RefHybrid predictor(cfg);
    FiniteTableStats stats;
    for (const TraceRecord &rec : stream) {
        if (!rec.writesReg)
            continue;
        ++stats.producers;
        bool tagged = rec.directive != Directive::None;
        if (tagged)
            ++stats.candidates;
        Prediction pred = predictor.predict(rec.pc, rec.directive);
        bool correct = pred.hit && pred.value == rec.value;
        if (pred.hit && tagged)
            ++(correct ? stats.correctTaken : stats.incorrectTaken);
        predictor.update(rec.pc, rec.value, correct, rec.directive,
                         tagged);
    }
    stats.evictions = predictor.evictions();
    return stats;
}

void
expectSame(const FiniteTableStats &got, const FiniteTableStats &want)
{
    EXPECT_EQ(got.producers, want.producers);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.correctTaken, want.correctTaken);
    EXPECT_EQ(got.incorrectTaken, want.incorrectTaken);
    EXPECT_EQ(got.evictions, want.evictions);
}

TEST(ReplayOracle, FiniteTableEvaluatorMatchesReference)
{
    std::vector<TraceRecord> stream = makeStream(51, 30000);
    for (VpPolicy policy : {VpPolicy::Fsm, VpPolicy::Profile}) {
        PredictorConfig cfg = finiteConfig(policy == VpPolicy::Fsm ? 2 : 0);
        FiniteTableStats want = refFiniteTable(stream, policy, cfg);
        ASSERT_GT(want.evictions, 0u);
        ASSERT_GT(want.correctTaken, 0u);

        FiniteTableEvaluator by_record(policy, cfg);
        for (const TraceRecord &rec : stream)
            by_record.record(rec);
        expectSame(by_record.result(), want);

        FiniteTableEvaluator by_block(policy, cfg);
        feedBlocks(stream, &by_block);
        expectSame(by_block.result(), want);
    }
}

TEST(ReplayOracle, HybridTableEvaluatorMatchesReference)
{
    std::vector<TraceRecord> stream = makeStream(61, 30000);
    FiniteTableStats want = refHybridTable(stream, smallHybrid());
    ASSERT_GT(want.evictions, 0u);

    HybridTableEvaluator by_record(smallHybrid());
    for (const TraceRecord &rec : stream)
        by_record.record(rec);
    expectSame(by_record.result(), want);

    HybridTableEvaluator by_block(smallHybrid());
    feedBlocks(stream, &by_block);
    expectSame(by_block.result(), want);
}

// ---------------------------------------------------------------------
// EvaluatorBank sharing against the same evaluators replayed alone.

/**
 * An annotation of the stream's pcs: each tagged (stride or
 * last-value, evenly) with probability `tag_percent`.
 */
Program
annotationProgram(uint64_t seed, uint64_t tag_percent)
{
    Rng rng(seed);
    Program program("oracle." + std::to_string(seed));
    for (uint64_t pc = 0; pc < kStreamPcs; ++pc) {
        Instruction inst;
        inst.op = Opcode::Add;
        if (rng.nextBelow(100) < tag_percent)
            inst.directive = rng.nextBelow(2) == 0 ? Directive::Stride
                                                   : Directive::LastValue;
        program.append(inst);
    }
    return program;
}

/** The stream as a slot annotated with `program` sees it. */
std::vector<TraceRecord>
annotate(std::vector<TraceRecord> stream, const Program *program)
{
    if (program != nullptr)
        for (TraceRecord &rec : stream)
            rec.directive = program->at(rec.pc).directive;
    return stream;
}

std::vector<TraceRecord>
concat(std::initializer_list<std::vector<TraceRecord>> parts)
{
    std::vector<TraceRecord> out;
    for (const auto &part : parts)
        out.insert(out.end(), part.begin(), part.end());
    return out;
}

void
append(std::vector<uint64_t> &out, const ClassificationAccuracy &acc)
{
    out.insert(out.end(), {acc.corrects, acc.correctsAccepted,
                           acc.mispredictions, acc.mispredictionsCaught});
}

void
append(std::vector<uint64_t> &out, const FiniteTableStats &stats)
{
    out.insert(out.end(), {stats.producers, stats.candidates,
                           stats.correctTaken, stats.incorrectTaken,
                           stats.evictions});
}

/**
 * The sweep's 17 evaluators: classification and finite tables as FSM
 * (under `base`) plus one profile instance per annotation, and one
 * hybrid table per annotation. Slots are listed in bank order.
 */
class SweepEvaluators
{
  public:
    SweepEvaluators(const Program &base,
                    const std::vector<Program> &annotated)
    {
        cls_.emplace_back(fsm_);
        slots_.push_back({&cls_.back(), &base});
        for (size_t t = 0; t < annotated.size(); ++t) {
            cls_.emplace_back(profile_[t]);
            slots_.push_back({&cls_.back(), &annotated[t]});
        }
        finite_.emplace_back(VpPolicy::Fsm, finiteConfig(2));
        slots_.push_back({&finite_.back(), &base});
        for (const Program &program : annotated) {
            finite_.emplace_back(VpPolicy::Profile, finiteConfig(0));
            slots_.push_back({&finite_.back(), &program});
        }
        for (const Program &program : annotated) {
            hybrid_.emplace_back(smallHybrid());
            slots_.push_back({&hybrid_.back(), &program});
        }
    }

    SweepEvaluators(const SweepEvaluators &) = delete;
    SweepEvaluators &operator=(const SweepEvaluators &) = delete;

    void
    addTo(EvaluatorBank &bank)
    {
        for (const Slot &slot : slots_)
            bank.addBlockSink(slot.sink, slot.annotation);
    }

    /** Each evaluator's own consumeBlock over its annotated stream. */
    void
    replayAlone(const std::vector<TraceRecord> &stream)
    {
        for (const Slot &slot : slots_) {
            TraceBlockSink *alone = slot.sink;
            feedBlocks(annotate(stream, slot.annotation), alone);
        }
    }

    std::vector<uint64_t>
    results() const
    {
        std::vector<uint64_t> out;
        for (const auto &e : cls_)
            append(out, e.result());
        for (const auto &e : finite_)
            append(out, e.result());
        for (const auto &e : hybrid_)
            append(out, e.result());
        out.push_back(fsm_.trackedInstructions());
        return out;
    }

  private:
    struct Slot
    {
        SharedBlockSink *sink;
        const Program *annotation;
    };

    SaturatingClassifier fsm_;
    std::array<ProfileClassifier, 5> profile_;
    std::deque<ClassificationEvaluator> cls_;
    std::deque<FiniteTableEvaluator> finite_;
    std::deque<HybridTableEvaluator> hybrid_;
    std::vector<Slot> slots_;
};

/** The five annotations, from sparse to dense, like the sweep's
 *  thresholds. */
std::vector<Program>
sweepAnnotations(uint64_t seed)
{
    std::vector<Program> out;
    for (uint64_t t = 0; t < 5; ++t)
        out.push_back(annotationProgram(seed + t, 20 + 15 * t));
    return out;
}

/** Forwards blocks and nothing else, like a timing wrapper. */
class ForwardingSink : public TraceBlockSink
{
  public:
    explicit ForwardingSink(TraceBlockSink *inner) : inner_(inner) {}

    void
    consumeBlock(const TraceBlockView &block) override
    {
        inner_->consumeBlock(block);
    }

  private:
    TraceBlockSink *inner_;
};

TEST(ReplayOracle, SweepBankMatchesSoloReplays)
{
    std::vector<TraceRecord> stream = makeStream(81, 30000);
    Program base = annotationProgram(80, 0);
    std::vector<Program> annotated = sweepAnnotations(82);

    SweepEvaluators solo(base, annotated);
    solo.replayAlone(stream);
    std::vector<uint64_t> want = solo.results();

    SweepEvaluators banked(base, annotated);
    EvaluatorBank bank;
    banked.addTo(bank);
    EXPECT_EQ(bank.size(), 17u);
    feedBlocks(stream, &bank);
    EXPECT_EQ(banked.results(), want);
}

TEST(ReplayOracle, SweepBankReplayedTwiceMatchesSoloReplays)
{
    std::vector<TraceRecord> first = makeStream(91, 20000);
    std::vector<TraceRecord> second = makeStream(92, 12000);
    Program base = annotationProgram(90, 0);
    std::vector<Program> annotated = sweepAnnotations(93);

    SweepEvaluators solo(base, annotated);
    solo.replayAlone(first);
    solo.replayAlone(second);

    SweepEvaluators banked(base, annotated);
    EvaluatorBank bank;
    banked.addTo(bank);
    feedBlocks(first, &bank);
    feedBlocks(second, &bank);
    EXPECT_EQ(banked.results(), solo.results());
}

TEST(ReplayOracle, NestedSweepBankMatchesSoloReplays)
{
    std::vector<TraceRecord> stream = makeStream(101, 30000);
    Program base = annotationProgram(100, 0);
    std::vector<Program> annotated = sweepAnnotations(102);

    SweepEvaluators solo(base, annotated);
    solo.replayAlone(stream);

    // The inner bank sees blocks only through a wrapper that forwards
    // consumeBlock and nothing else.
    SweepEvaluators banked(base, annotated);
    EvaluatorBank inner;
    banked.addTo(inner);
    ForwardingSink forward(&inner);
    EvaluatorBank outer;
    outer.addBlockSink(&forward);
    feedBlocks(stream, &outer);
    EXPECT_EQ(banked.results(), solo.results());
}

TEST(ReplayOracle, UnannotatedSlotsKeepTheGeneralLoop)
{
    // makeStream overrides a tenth of each pc's records with another
    // directive, so the trace's own directives are not constant per
    // pc: per-pc tallies and tagged-only stepping would be wrong.
    std::vector<TraceRecord> stream = makeStream(111, 30000);
    Program annotation = annotationProgram(112, 60);
    size_t tracked = 0;

    ProfileClassifier raw_directives, annotated_directives;
    ClassificationEvaluator raw_cls(raw_directives);
    ClassificationEvaluator annotated_cls(annotated_directives);
    FiniteTableEvaluator raw_finite(VpPolicy::Profile, finiteConfig(0));
    HybridTableEvaluator raw_hybrid(smallHybrid());
    EvaluatorBank bank;
    bank.addBlockSink(&raw_cls);
    bank.addBlockSink(&annotated_cls, &annotation);
    bank.addBlockSink(&raw_finite);
    bank.addBlockSink(&raw_hybrid);
    feedBlocks(stream, &bank);

    expectSame(raw_cls.result(), refClassification(stream, false, &tracked));
    expectSame(annotated_cls.result(),
               refClassification(annotate(stream, &annotation), false,
                                 &tracked));
    expectSame(raw_finite.result(),
               refFiniteTable(stream, VpPolicy::Profile, finiteConfig(0)));
    expectSame(raw_hybrid.result(), refHybridTable(stream, smallHybrid()));
}

TEST(ReplayOracle, EvaluatorsMoveBetweenBanksAndSoloReplays)
{
    std::vector<TraceRecord> a = makeStream(121, 12000);
    std::vector<TraceRecord> b = makeStream(122, 9000);
    std::vector<TraceRecord> c = makeStream(123, 12000);
    std::vector<TraceRecord> d = makeStream(124, 9000);
    Program p1 = annotationProgram(125, 40);
    Program p2 = annotationProgram(126, 70);

    ProfileClassifier directives;
    SaturatingClassifier counters;
    ClassificationEvaluator profile_cls(directives);
    ClassificationEvaluator fsm_cls(counters);
    FiniteTableEvaluator finite(VpPolicy::Profile, finiteConfig(0));
    HybridTableEvaluator hybrid(smallHybrid());
    auto addAll = [&](EvaluatorBank &bank, const Program *annotation) {
        bank.addBlockSink(&profile_cls, annotation);
        bank.addBlockSink(&fsm_cls, annotation);
        bank.addBlockSink(&finite, annotation);
        bank.addBlockSink(&hybrid, annotation);
    };
    auto alone = [&](const std::vector<TraceRecord> &stream) {
        for (TraceBlockSink *sink :
             std::initializer_list<TraceBlockSink *>{
                 &profile_cls, &fsm_cls, &finite, &hybrid})
            feedBlocks(stream, sink);
    };

    // Bank A (under p1) shares one stride pass between the two
    // classification slots; then raw solo replays; then bank B under
    // another annotation; then bank A again, which must notice that
    // its shared history and tagged-only premise no longer hold.
    EvaluatorBank bank_a;
    addAll(bank_a, &p1);
    feedBlocks(a, &bank_a);
    alone(b);
    EvaluatorBank bank_b;
    addAll(bank_b, &p2);
    feedBlocks(c, &bank_b);
    feedBlocks(d, &bank_a);

    std::vector<TraceRecord> seen = concat(
        {annotate(a, &p1), b, annotate(c, &p2), annotate(d, &p1)});
    size_t tracked = 0;
    expectSame(profile_cls.result(),
               refClassification(seen, false, &tracked));
    expectSame(fsm_cls.result(), refClassification(seen, true, &tracked));
    EXPECT_EQ(counters.trackedInstructions(), tracked);
    expectSame(finite.result(),
               refFiniteTable(seen, VpPolicy::Profile, finiteConfig(0)));
    expectSame(hybrid.result(), refHybridTable(seen, smallHybrid()));
}

/** Feeds every block to an inner sink twice. */
class TwiceSink : public TraceBlockSink
{
  public:
    explicit TwiceSink(TraceBlockSink *inner) : inner_(inner) {}

    void
    consumeBlock(const TraceBlockView &block) override
    {
        inner_->consumeBlock(block);
        inner_->consumeBlock(block);
    }

  private:
    TraceBlockSink *inner_;
};

TEST(ReplayOracle, CopiedAndTwiceRegisteredEvaluatorsStayExact)
{
    std::vector<TraceRecord> a = makeStream(131, 12000);
    std::vector<TraceRecord> b = makeStream(132, 9000);
    std::vector<TraceRecord> c = makeStream(133, 9000);
    Program p = annotationProgram(134, 50);
    size_t tracked = 0;

    // A copy shares the original's stride history until either one
    // steps on its own.
    ProfileClassifier directives;
    ClassificationEvaluator original(directives);
    EvaluatorBank bank;
    bank.addBlockSink(&original, &p);
    feedBlocks(a, &bank);
    ClassificationEvaluator copy = original;
    feedBlocks(b, &copy);
    // A fresh evaluator joining a bank that already replayed starts
    // from an empty history of its own.
    ClassificationEvaluator late(directives);
    bank.addBlockSink(&late, &p);
    feedBlocks(c, &bank);
    expectSame(copy.result(),
               refClassification(concat({annotate(a, &p), b}), false,
                                 &tracked));
    expectSame(original.result(),
               refClassification(concat({annotate(a, &p),
                                         annotate(c, &p)}),
                                 false, &tracked));
    expectSame(late.result(),
               refClassification(annotate(c, &p), false, &tracked));

    // One evaluator in two slots of one bank steps twice per block,
    // exactly like a solo evaluator fed every block twice.
    SaturatingClassifier twice_counters, solo_counters;
    ClassificationEvaluator twice_cls(twice_counters);
    ClassificationEvaluator solo_cls(solo_counters);
    FiniteTableEvaluator twice_finite(VpPolicy::Profile, finiteConfig(0));
    FiniteTableEvaluator solo_finite(VpPolicy::Profile, finiteConfig(0));
    HybridTableEvaluator twice_hybrid(smallHybrid());
    HybridTableEvaluator solo_hybrid(smallHybrid());
    EvaluatorBank twice;
    for (int k = 0; k < 2; ++k) {
        twice.addBlockSink(&twice_cls, &p);
        twice.addBlockSink(&twice_finite, &p);
        twice.addBlockSink(&twice_hybrid, &p);
    }
    feedBlocks(a, &twice);
    std::vector<TraceRecord> seen = annotate(a, &p);
    TwiceSink solo_cls_twice(&solo_cls);
    TwiceSink solo_finite_twice(&solo_finite);
    TwiceSink solo_hybrid_twice(&solo_hybrid);
    feedBlocks(seen, &solo_cls_twice);
    feedBlocks(seen, &solo_finite_twice);
    feedBlocks(seen, &solo_hybrid_twice);
    expectSame(twice_cls.result(), solo_cls.result());
    EXPECT_EQ(twice_counters.trackedInstructions(),
              solo_counters.trackedInstructions());
    expectSame(twice_finite.result(), solo_finite.result());
    expectSame(twice_hybrid.result(), solo_hybrid.result());
}

// ---------------------------------------------------------------------
// ProfileCollector against a map-keyed reference collector.

std::map<uint64_t, PcProfile>
refProfile(const std::vector<TraceRecord> &stream, uint64_t *producers)
{
    RefPredictor stride(infiniteConfig(), true);
    RefPredictor last(infiniteConfig(), false);
    std::map<uint64_t, PcProfile> image;
    *producers = 0;
    for (const TraceRecord &rec : stream) {
        if (!rec.writesReg)
            continue;
        ++*producers;
        PcProfile &prof = image[rec.pc];
        prof.opClass = classOf(rec.op);
        ++prof.executions;
        Prediction sp = stride.predict(rec.pc);
        if (sp.hit) {
            ++prof.attempts;
            if (sp.value == rec.value) {
                ++prof.correct;
                if (sp.usedNonZeroStride)
                    ++prof.correctNonZeroStride;
            }
        }
        stride.update(rec.pc, rec.value, sp.hit && sp.value == rec.value,
                      true);
        Prediction lp = last.predict(rec.pc);
        if (lp.hit) {
            ++prof.lastValueAttempts;
            if (lp.value == rec.value)
                ++prof.lastValueCorrect;
        }
        last.update(rec.pc, rec.value, lp.hit && lp.value == rec.value,
                    true);
    }
    return image;
}

void
expectProfile(const ProfileCollector &collector,
              const std::vector<TraceRecord> &stream)
{
    uint64_t producers = 0;
    std::map<uint64_t, PcProfile> want = refProfile(stream, &producers);
    EXPECT_EQ(collector.producersSeen(), producers);
    EXPECT_EQ(collector.image().entries(), want);
}

TEST(ReplayOracle, ProfileCollectorMatchesReference)
{
    std::vector<TraceRecord> first = makeStream(71, 30000);
    std::vector<TraceRecord> second = makeStream(72, 10000);

    ProfileCollector collector("oracle");
    for (const TraceRecord &rec : first)
        collector.record(rec);
    expectProfile(collector, first);

    // After takeImage() the collector starts from nothing.
    ProfileImage taken = collector.takeImage();
    EXPECT_EQ(taken.programName(), "oracle");
    EXPECT_EQ(collector.producersSeen(), 0u);
    EXPECT_TRUE(collector.image().empty());
    for (const TraceRecord &rec : second)
        collector.record(rec);
    expectProfile(collector, second);
}

// The collector's per-pc slots point into its own image.
static_assert(!std::is_copy_constructible_v<ProfileCollector> &&
              !std::is_move_constructible_v<ProfileCollector>);

} // namespace
} // namespace vpprof
