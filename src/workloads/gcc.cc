/**
 * @file
 * The "gcc" workload: a multi-pass compiler pipeline standing in for
 * SPEC95 126.gcc.
 *
 * Five passes over a synthetic source text of RPN expressions:
 *   1. lexer      — characters to (type, value) tokens (numbers,
 *                   variables, six operators, ';' terminators);
 *   2. evaluator  — stack-based RPN evaluation, one result per
 *                   expression into the IR array;
 *   3. peephole   — Collatz-style fold over IR results (branchy);
 *   4. liveness   — running live-counter histogram over the IR;
 *   5. emit       — fold outputs, the histogram and counts into the
 *                   checksum.
 *
 * Value-predictability character: gcc's signature is a *large static
 * instruction working set* with mixed behaviour — scan indices stride,
 * classification compares repeat, token values and stack contents are
 * data-dependent. The many distinct static instructions pressure a
 * finite prediction table, which is exactly why the paper's gcc profits
 * from profile-guided allocation.
 */

#include "workloads/workload.hh"

#include <array>
#include <string>

#include "common/random.hh"
#include "isa/program_builder.hh"

namespace vpprof
{

namespace
{

constexpr int64_t kText = 100000;     // source characters
constexpr int64_t kToks = 300000;     // token (type,value) pairs
constexpr int64_t kVars = 500;        // 26 variable values
constexpr int64_t kStack = 70000;     // RPN evaluation stack
constexpr int64_t kIr = 500000;       // one result per expression
constexpr int64_t kOut = 550000;      // folded results
constexpr int64_t kRegHist = 600;     // 32-entry liveness histogram
constexpr uint64_t kParamChars = kParamBase + 0;

// Token types.
constexpr int64_t kTokNum = 0;
constexpr int64_t kTokVar = 1;
constexpr int64_t kTokOp = 2;
constexpr int64_t kTokEnd = 3;

struct GccInput
{
    int64_t exprs;
    uint64_t seed;
};

constexpr std::array<GccInput, 5> kInputs = {{
    {2000, 0x6cc1},
    {1500, 0x6cc2},
    {2600, 0x6cc3},
    {1750, 0x6cc4},
    {2300, 0x6cc5},
}};

/** Operator characters in encoding order (+ - * & | ^). */
constexpr std::array<int64_t, 6> kOpChars = {43, 45, 42, 38, 124, 94};

/** Generate the RPN source text for one input set. */
std::vector<int64_t>
makeSource(const GccInput &in)
{
    std::vector<int64_t> text;
    Rng rng(in.seed);
    for (int64_t e = 0; e < in.exprs; ++e) {
        int64_t terms = 2 + static_cast<int64_t>(rng.nextBelow(5));
        int depth = 0;
        for (int64_t k = 0; k < terms; ++k) {
            if (rng.nextBelow(2) == 0) {
                // Number literal 0..999.
                int64_t num = static_cast<int64_t>(rng.nextBelow(1000));
                if (num >= 100)
                    text.push_back(48 + num / 100);
                if (num >= 10)
                    text.push_back(48 + (num / 10) % 10);
                text.push_back(48 + num % 10);
            } else {
                // Variable reference a..z.
                text.push_back(97 +
                               static_cast<int64_t>(rng.nextBelow(26)));
            }
            ++depth;
            text.push_back(32);
            while (depth >= 2 && rng.nextBelow(2) == 0) {
                text.push_back(kOpChars[rng.nextBelow(6)]);
                text.push_back(32);
                --depth;
            }
        }
        while (depth >= 2) {
            text.push_back(kOpChars[rng.nextBelow(6)]);
            text.push_back(32);
            --depth;
        }
        text.push_back(59);  // ';'
    }
    return text;
}

std::vector<int64_t>
makeVars(const GccInput &in)
{
    std::vector<int64_t> vars;
    Rng rng(in.seed ^ 0x77);
    for (int i = 0; i < 26; ++i)
        vars.push_back(rng.nextInRange(-5000, 5000));
    return vars;
}

Program
buildGccProgram()
{
    ProgramBuilder b("gcc");

    // Chunked pipeline: like its SPEC namesake compiling one function
    // at a time, the program lexes ~1024 characters, then runs the
    // evaluator, peephole, liveness and emit passes over everything
    // produced so far, and repeats. All five passes therefore stay
    // simultaneously hot — the large competing instruction working set
    // that makes gcc profit from profile-guided table allocation.
    // Every pass is a left-to-right fold with persistent state, so the
    // chunking does not change any computed value.
    //
    // Register map (persistent across chunks):
    //   r1=char idx  r2=N  r18=num  r19=innum  r6=tokens produced
    //   r20=eval token idx  r10=eval sp  r11=IR produced
    //   r21=fold idx  r14=even count
    //   r22=live idx  r15=live counter
    //   r23=emit idx  r17=checksum  r24=chunk char limit
    //   r3/r4/r7/r8/r9/r12/r13 are per-pass scratch.
    b.ld(R(2), R(0), kParamChars);
    b.movi(R(1), 0);
    b.movi(R(18), 0);
    b.movi(R(19), 0);
    b.movi(R(6), 0);
    b.movi(R(20), 0);
    b.movi(R(10), 0);
    b.movi(R(11), 0);
    b.movi(R(21), 0);
    b.movi(R(14), 0);
    b.movi(R(22), 0);
    b.movi(R(15), 0);
    b.movi(R(23), 0);
    b.movi(R(17), 0);

    auto lex_body = [&](const std::string &tag) {
        b.bge(R(1), R(24), "lex_chunk_end");
        b.ld(R(3), R(1), kText);
        // digit?
        b.slti(R(7), R(3), 48);
        b.bne(R(7), R(0), "not_digit_" + tag);
        b.slti(R(7), R(3), 58);
        b.beq(R(7), R(0), "not_digit_" + tag);
        b.muli(R(18), R(18), 10);
        b.add(R(18), R(18), R(3));
        b.subi(R(18), R(18), 48);
        b.movi(R(19), 1);
        b.jmp("lex_next_" + tag);
        b.label("not_digit_" + tag);
        // flush pending number token
        b.beq(R(19), R(0), "no_flush_" + tag);
        b.shli(R(8), R(6), 1);
        b.st(R(8), R(0), kToks);            // type = kTokNum (0)
        b.st(R(8), R(18), kToks + 1);
        b.addi(R(6), R(6), 1);
        b.movi(R(18), 0);
        b.movi(R(19), 0);
        b.label("no_flush_" + tag);
        // letter?
        b.slti(R(7), R(3), 97);
        b.bne(R(7), R(0), "not_letter_" + tag);
        b.slti(R(7), R(3), 123);
        b.beq(R(7), R(0), "not_letter_" + tag);
        b.subi(R(9), R(3), 97);
        b.shli(R(8), R(6), 1);
        b.movi(R(7), kTokVar);
        b.st(R(8), R(7), kToks);
        b.st(R(8), R(9), kToks + 1);
        b.addi(R(6), R(6), 1);
        b.jmp("lex_next_" + tag);
        b.label("not_letter_" + tag);
        // space?
        b.movi(R(7), 32);
        b.beq(R(3), R(7), "lex_next_" + tag);
        // ';' ?
        b.movi(R(7), 59);
        b.bne(R(3), R(7), "not_semi_" + tag);
        b.shli(R(8), R(6), 1);
        b.movi(R(7), kTokEnd);
        b.st(R(8), R(7), kToks);
        b.st(R(8), R(0), kToks + 1);
        b.addi(R(6), R(6), 1);
        b.jmp("lex_next_" + tag);
        b.label("not_semi_" + tag);
        // operator chain: + - * & | ^
        b.movi(R(9), 0);
        b.movi(R(7), 43);
        b.beq(R(3), R(7), "emit_op_" + tag);
        b.movi(R(9), 1);
        b.movi(R(7), 45);
        b.beq(R(3), R(7), "emit_op_" + tag);
        b.movi(R(9), 2);
        b.movi(R(7), 42);
        b.beq(R(3), R(7), "emit_op_" + tag);
        b.movi(R(9), 3);
        b.movi(R(7), 38);
        b.beq(R(3), R(7), "emit_op_" + tag);
        b.movi(R(9), 4);
        b.movi(R(7), 124);
        b.beq(R(3), R(7), "emit_op_" + tag);
        b.movi(R(9), 5);
        b.movi(R(7), 94);
        b.beq(R(3), R(7), "emit_op_" + tag);
        b.jmp("lex_next_" + tag);           // unknown char: skip
        b.label("emit_op_" + tag);
        b.shli(R(8), R(6), 1);
        b.movi(R(7), kTokOp);
        b.st(R(8), R(7), kToks);
        b.st(R(8), R(9), kToks + 1);
        b.addi(R(6), R(6), 1);
        b.label("lex_next_" + tag);
        b.addi(R(1), R(1), 1);
    };

    auto eval_body = [&](const std::string &tag) {
        b.bge(R(20), R(6), "eval_end");
        b.shli(R(8), R(20), 1);
        b.ld(R(3), R(8), kToks);
        b.ld(R(4), R(8), kToks + 1);
        b.bne(R(3), R(0), "not_num_" + tag);   // kTokNum == 0
        b.st(R(10), R(4), kStack);             // push literal
        b.addi(R(10), R(10), 1);
        b.jmp("eval_next_" + tag);
        b.label("not_num_" + tag);
        b.movi(R(7), kTokVar);
        b.bne(R(3), R(7), "not_var_" + tag);
        b.ld(R(9), R(4), kVars);               // push variable value
        b.st(R(10), R(9), kStack);
        b.addi(R(10), R(10), 1);
        b.jmp("eval_next_" + tag);
        b.label("not_var_" + tag);
        b.movi(R(7), kTokOp);
        b.bne(R(3), R(7), "not_op_" + tag);
        b.subi(R(10), R(10), 1);               // b = pop
        b.ld(R(13), R(10), kStack);
        b.subi(R(10), R(10), 1);               // a = pop
        b.ld(R(12), R(10), kStack);
        b.bne(R(4), R(0), "op_not_add_" + tag);
        b.add(R(12), R(12), R(13));
        b.jmp("op_done_" + tag);
        b.label("op_not_add_" + tag);
        b.movi(R(7), 1);
        b.bne(R(4), R(7), "op_not_sub_" + tag);
        b.sub(R(12), R(12), R(13));
        b.jmp("op_done_" + tag);
        b.label("op_not_sub_" + tag);
        b.movi(R(7), 2);
        b.bne(R(4), R(7), "op_not_mul_" + tag);
        b.mul(R(12), R(12), R(13));
        b.jmp("op_done_" + tag);
        b.label("op_not_mul_" + tag);
        b.movi(R(7), 3);
        b.bne(R(4), R(7), "op_not_and_" + tag);
        b.and_(R(12), R(12), R(13));
        b.jmp("op_done_" + tag);
        b.label("op_not_and_" + tag);
        b.movi(R(7), 4);
        b.bne(R(4), R(7), "op_not_or_" + tag);
        b.or_(R(12), R(12), R(13));
        b.jmp("op_done_" + tag);
        b.label("op_not_or_" + tag);
        b.xor_(R(12), R(12), R(13));
        b.label("op_done_" + tag);
        b.st(R(10), R(12), kStack);            // push result
        b.addi(R(10), R(10), 1);
        b.jmp("eval_next_" + tag);
        b.label("not_op_" + tag);
        // kTokEnd: pop expression result into IR
        b.subi(R(10), R(10), 1);
        b.ld(R(12), R(10), kStack);
        b.st(R(11), R(12), kIr);
        b.addi(R(11), R(11), 1);
        b.label("eval_next_" + tag);
        b.addi(R(20), R(20), 1);
    };

    auto fold_body = [&](const std::string &tag) {
        b.bge(R(21), R(11), "fold_end");
        b.ld(R(3), R(21), kIr);
        b.andi(R(7), R(3), 1);
        b.bne(R(7), R(0), "odd_case_" + tag);
        b.sari(R(4), R(3), 1);              // even: v / 2
        b.addi(R(14), R(14), 1);
        b.jmp("fold_store_" + tag);
        b.label("odd_case_" + tag);
        b.muli(R(4), R(3), 3);              // odd: 3v + 1
        b.addi(R(4), R(4), 1);
        b.label("fold_store_" + tag);
        b.st(R(21), R(4), kOut);
        b.addi(R(21), R(21), 1);
    };

    auto live_body = [&](const std::string &tag) {
        b.bge(R(22), R(11), "live_end");
        b.ld(R(3), R(22), kIr);
        b.remi(R(7), R(3), 7);              // v mod 7 in -6..6
        b.add(R(15), R(15), R(7));
        b.subi(R(15), R(15), 2);
        b.slti(R(7), R(15), 0);             // clamp to 0..31
        b.beq(R(7), R(0), "no_clamp_lo_" + tag);
        b.movi(R(15), 0);
        b.label("no_clamp_lo_" + tag);
        b.slti(R(7), R(15), 32);
        b.bne(R(7), R(0), "no_clamp_hi_" + tag);
        b.movi(R(15), 31);
        b.label("no_clamp_hi_" + tag);
        b.ld(R(7), R(15), kRegHist);
        b.addi(R(7), R(7), 1);
        b.st(R(15), R(7), kRegHist);
        b.addi(R(22), R(22), 1);
    };

    auto emit_body = [&](const std::string &tag) {
        (void)tag;
        b.bge(R(23), R(11), "emit_end");
        b.ld(R(3), R(23), kOut);
        b.muli(R(17), R(17), 33);
        b.add(R(17), R(17), R(3));
        b.addi(R(23), R(23), 1);
    };

    // ---- the chunked compilation loop ----
    b.label("chunk_loop");
    b.addi(R(24), R(1), 1024);          // chunk character limit
    b.slt(R(9), R(24), R(2));
    b.bne(R(9), R(0), "limit_ok");
    b.mov(R(24), R(2));
    b.label("limit_ok");

    b.label("lex_loop");
    lex_body("a");
    lex_body("b");
    lex_body("c");
    b.jmp("lex_loop");
    b.label("lex_chunk_end");
    b.bge(R(1), R(2), "lex_tail");      // whole text consumed?
    b.jmp("passes");
    b.label("lex_tail");                // flush a trailing number once
    b.beq(R(19), R(0), "passes");
    b.shli(R(8), R(6), 1);
    b.st(R(8), R(0), kToks);
    b.st(R(8), R(18), kToks + 1);
    b.addi(R(6), R(6), 1);
    b.movi(R(19), 0);
    b.label("passes");

    b.label("eval_loop");
    for (int u = 0; u < 16; ++u)
        eval_body(std::string("u") + std::to_string(u));
    b.jmp("eval_loop");
    b.label("eval_end");

    b.label("fold_loop");
    for (int u = 0; u < 12; ++u)
        fold_body(std::string("u") + std::to_string(u));
    b.jmp("fold_loop");
    b.label("fold_end");

    b.label("live_loop");
    for (int u = 0; u < 12; ++u)
        live_body(std::string("u") + std::to_string(u));
    b.jmp("live_loop");
    b.label("live_end");

    b.label("emit_loop");
    for (int u = 0; u < 12; ++u)
        emit_body(std::string("u") + std::to_string(u));
    b.jmp("emit_loop");
    b.label("emit_end");

    b.blt(R(1), R(2), "chunk_loop");    // more source to compile

    // ---- final: histogram fold (fully unrolled) and checksum ----
    for (int i = 0; i < 32; ++i) {
        b.ld(R(3), R(0), kRegHist + i);
        b.muli(R(17), R(17), 7);
        b.add(R(17), R(17), R(3));
    }
    b.add(R(17), R(17), R(6));          // token count
    b.add(R(17), R(17), R(11));         // expression count
    b.add(R(17), R(17), R(14));         // even count
    b.st(R(0), R(17), kChecksumAddr);
    b.halt();

    return b.build();
}

class GccWorkload : public Workload
{
  public:
    GccWorkload() : program_(buildGccProgram()) {}

    std::string_view name() const override { return "gcc"; }

    std::string_view
    description() const override
    {
        return "five-pass expression compiler pipeline (126.gcc)";
    }

    const Program &program() const override { return program_; }

    size_t numInputSets() const override { return kInputs.size(); }

    MemoryImage
    input(size_t idx) const override
    {
        const GccInput &in = kInputs.at(idx);
        MemoryImage image;
        std::vector<int64_t> text = makeSource(in);
        image.store(kParamChars, static_cast<int64_t>(text.size()));
        image.storeBlock(kText, text);
        image.storeBlock(kVars, makeVars(in));
        return image;
    }

    int64_t referenceChecksum(size_t idx) const override;

  private:
    Program program_;
};

} // namespace

int64_t
GccWorkload::referenceChecksum(size_t idx) const
{
    const GccInput &in = kInputs.at(idx);
    std::vector<int64_t> text = makeSource(in);
    std::vector<int64_t> vars = makeVars(in);

    // Pass 1: lexer.
    struct Tok { int64_t type, value; };
    std::vector<Tok> toks;
    int64_t num = 0;
    bool innum = false;
    auto flush = [&]() {
        if (innum) {
            toks.push_back({kTokNum, num});
            num = 0;
            innum = false;
        }
    };
    for (int64_t c : text) {
        if (c >= 48 && c < 58) {
            num = num * 10 + (c - 48);
            innum = true;
            continue;
        }
        flush();
        if (c >= 97 && c < 123) {
            toks.push_back({kTokVar, c - 97});
        } else if (c == 59) {
            toks.push_back({kTokEnd, 0});
        } else if (c != 32) {
            for (size_t k = 0; k < kOpChars.size(); ++k) {
                if (c == kOpChars[k]) {
                    toks.push_back({kTokOp, static_cast<int64_t>(k)});
                    break;
                }
            }
        }
    }
    flush();

    // Pass 2: RPN evaluation.
    std::vector<int64_t> stack, ir;
    for (const Tok &tok : toks) {
        switch (tok.type) {
          case kTokNum:
            stack.push_back(tok.value);
            break;
          case kTokVar:
            stack.push_back(vars[static_cast<size_t>(tok.value)]);
            break;
          case kTokOp: {
            int64_t rhs = stack.back();
            stack.pop_back();
            int64_t lhs = stack.back();
            stack.pop_back();
            int64_t r = 0;
            uint64_t ua = static_cast<uint64_t>(lhs);
            uint64_t ub = static_cast<uint64_t>(rhs);
            switch (tok.value) {
              case 0: r = static_cast<int64_t>(ua + ub); break;
              case 1: r = static_cast<int64_t>(ua - ub); break;
              case 2: r = static_cast<int64_t>(ua * ub); break;
              case 3: r = lhs & rhs; break;
              case 4: r = lhs | rhs; break;
              default: r = lhs ^ rhs; break;
            }
            stack.push_back(r);
            break;
          }
          default:
            ir.push_back(stack.back());
            stack.pop_back();
            break;
        }
    }

    // Pass 3: peephole fold.
    std::vector<int64_t> out;
    int64_t even_count = 0;
    for (int64_t v : ir) {
        if (v & 1) {
            out.push_back(static_cast<int64_t>(
                static_cast<uint64_t>(v) * 3 + 1));
        } else {
            out.push_back(v >> 1);
            ++even_count;
        }
    }

    // Pass 4: liveness histogram.
    std::vector<int64_t> hist(32, 0);
    int64_t live = 0;
    for (int64_t v : ir) {
        live += v % 7;
        live -= 2;
        if (live < 0)
            live = 0;
        if (live >= 32)
            live = 31;
        ++hist[static_cast<size_t>(live)];
    }

    // Pass 5: emit.
    uint64_t checksum = 0;
    for (int64_t v : out)
        checksum = checksum * 33 + static_cast<uint64_t>(v);
    for (int64_t h : hist)
        checksum = checksum * 7 + static_cast<uint64_t>(h);
    checksum += toks.size() + ir.size() +
                static_cast<uint64_t>(even_count);
    return static_cast<int64_t>(checksum);
}

std::unique_ptr<Workload>
makeGcc()
{
    return std::make_unique<GccWorkload>();
}

} // namespace vpprof
