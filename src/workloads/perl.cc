/**
 * @file
 * The "perl" workload: a text-scanning interpreter kernel standing in
 * for SPEC95 134.perl (running an anagram/word-count style script).
 *
 * Phase 1 scans the input text character by character, classifying
 * each through a 128-entry class table, hashing letters into a rolling
 * word hash and, at word boundaries, bucketing the word into count/sum
 * tables and a word-length histogram. Phase 2 finds the hottest hash
 * bucket (argmax), insertion-sorts the length histogram, and folds
 * everything into the checksum.
 *
 * Value-predictability character: the class-table loads repeat heavily
 * (text is mostly letters), scan indices stride, while rolling hashes
 * and bucket counters are data-dependent — a mid-range mix.
 */

#include "workloads/workload.hh"

#include <algorithm>
#include <array>
#include <string>

#include "common/random.hh"
#include "isa/program_builder.hh"

namespace vpprof
{

namespace
{

constexpr int64_t kText = 100000;
constexpr int64_t kClassTab = 700;     // 128 entries: 1=letter 0=sep
constexpr int64_t kWCount = 10000;     // 1024 buckets
constexpr int64_t kWSum = 12000;       // 1024 buckets
constexpr int64_t kLenHist = 14000;    // 16 entries
constexpr int64_t kBuckets = 1024;
constexpr int64_t kHashMul = 2654435761ll;
constexpr uint64_t kParamChars = kParamBase + 0;

struct PerlInput
{
    int64_t words;
    uint64_t seed;
    int64_t dictSize;  ///< distinct words to draw from
};

constexpr std::array<PerlInput, 5> kInputs = {{
    {11000, 0x9e41, 400},
    {8500, 0x9e42, 250},
    {13000, 0x9e43, 600},
    {9500, 0x9e44, 320},
    {12000, 0x9e45, 500},
}};

/** Zipf-ish text: words drawn from a small dictionary plus noise. */
std::vector<int64_t>
makeText(const PerlInput &in)
{
    Rng dict_rng(in.seed);
    std::vector<std::vector<int64_t>> dict;
    for (int64_t w = 0; w < in.dictSize; ++w) {
        int64_t len = 1 + static_cast<int64_t>(dict_rng.nextBelow(11));
        std::vector<int64_t> word;
        for (int64_t c = 0; c < len; ++c)
            word.push_back(97 +
                           static_cast<int64_t>(dict_rng.nextBelow(26)));
        dict.push_back(std::move(word));
    }

    std::vector<int64_t> text;
    Rng rng(in.seed ^ 0xabc);
    for (int64_t w = 0; w < in.words; ++w) {
        // Skewed choice: prefer low dictionary indices.
        uint64_t a = rng.nextBelow(static_cast<uint64_t>(in.dictSize));
        uint64_t b2 = rng.nextBelow(static_cast<uint64_t>(in.dictSize));
        const auto &word = dict[static_cast<size_t>(std::min(a, b2))];
        text.insert(text.end(), word.begin(), word.end());
        switch (rng.nextBelow(4)) {
          case 0: text.push_back(44); break;  // ','
          case 1: text.push_back(46); break;  // '.'
          default: text.push_back(32); break; // ' '
        }
    }
    return text;
}

Program
buildPerlProgram()
{
    ProgramBuilder b("perl");

    // r1=i r2=N r3=c r4=hash r5=len r6=words r7..r9 scratch
    // r15 = site selector. The scan body is unrolled x16 and the
    // word-end path is specialized on the low hash-bucket bits x16 —
    // the shape of an interpreter with many inlined opcode sites.
    b.ld(R(2), R(0), kParamChars);
    b.movi(R(1), 0);
    b.movi(R(4), 0);
    b.movi(R(5), 0);
    b.movi(R(6), 0);

    // The shared word-end body, specialized per bucket-low-bits site.
    auto word_end = [&](const std::string &tag,
                        const std::string &done_label) {
        b.ld(R(9), R(8), kWCount);
        b.addi(R(9), R(9), 1);
        b.st(R(8), R(9), kWCount);
        b.ld(R(9), R(8), kWSum);
        b.add(R(9), R(9), R(4));
        b.st(R(8), R(9), kWSum);
        b.slti(R(9), R(5), 16);
        b.bne(R(9), R(0), "len_ok_" + tag);
        b.movi(R(5), 15);
        b.label("len_ok_" + tag);
        b.ld(R(9), R(5), kLenHist);
        b.addi(R(9), R(9), 1);
        b.st(R(5), R(9), kLenHist);
        b.addi(R(6), R(6), 1);              // words++
        b.movi(R(4), 0);
        b.movi(R(5), 0);
        b.jmp(done_label);
    };

    auto scan_body = [&](const std::string &tag) {
        b.bge(R(1), R(2), "scan_end");
        b.ld(R(3), R(1), kText);
        b.ld(R(7), R(3), kClassTab);        // class lookup
        b.beq(R(7), R(0), "separator_" + tag);
        b.muli(R(4), R(4), 31);             // rolling hash
        b.add(R(4), R(4), R(3));
        b.addi(R(5), R(5), 1);
        b.jmp("scan_next_" + tag);
        b.label("separator_" + tag);
        b.beq(R(5), R(0), "scan_next_" + tag);  // no pending word
        // bucket = mulhash(hash) & 1023, then dispatch on low bits.
        b.muli(R(8), R(4), kHashMul);
        b.shri(R(8), R(8), 8);
        b.andi(R(8), R(8), kBuckets - 1);
        b.andi(R(15), R(8), 15);
        for (int k = 0; k < 16; ++k) {
            std::string wtag = tag + "_" + std::to_string(k);
            if (k < 15) {
                b.subi(R(9), R(15), k);
                b.bne(R(9), R(0),
                      "wtry_" + tag + "_" + std::to_string(k + 1));
            }
            word_end(wtag, "scan_next_" + tag);
            if (k < 15)
                b.label("wtry_" + tag + "_" + std::to_string(k + 1));
        }
        b.label("scan_next_" + tag);
        b.addi(R(1), R(1), 1);
    };

    b.label("scan");
    for (int u = 0; u < 6; ++u)
        scan_body(std::string("u") + std::to_string(u));
    b.jmp("scan");
    b.label("scan_end");

    // Flush a trailing word, mirroring the separator path.
    b.beq(R(5), R(0), "no_tail");
    b.muli(R(8), R(4), kHashMul);
    b.shri(R(8), R(8), 8);
    b.andi(R(8), R(8), kBuckets - 1);
    word_end("tail", "no_tail");
    b.label("no_tail");

    // ---- phase 2a: argmax over the bucket counts (unrolled x8) ----
    // r10=i r11=best idx r12=best count
    b.movi(R(10), 0);
    b.movi(R(11), 0);
    b.movi(R(12), -1);
    b.label("max_loop");
    for (int u = 0; u < 8; ++u) {
        std::string tag = std::to_string(u);
        b.slti(R(7), R(10), kBuckets);
        b.beq(R(7), R(0), "max_end");
        b.ld(R(9), R(10), kWCount);
        b.slt(R(7), R(12), R(9));
        b.beq(R(7), R(0), "max_next_" + tag);
        b.mov(R(12), R(9));
        b.mov(R(11), R(10));
        b.label("max_next_" + tag);
        b.addi(R(10), R(10), 1);
    }
    b.jmp("max_loop");
    b.label("max_end");

    // ---- phase 2b: insertion sort of the length histogram ----
    b.movi(R(10), 1);                   // i
    b.label("sort_outer");
    b.slti(R(7), R(10), 16);
    b.beq(R(7), R(0), "sort_end");
    b.ld(R(13), R(10), kLenHist);       // key
    b.subi(R(14), R(10), 1);            // j
    b.label("sort_inner");
    b.slti(R(7), R(14), 0);
    b.bne(R(7), R(0), "sort_place");
    b.ld(R(9), R(14), kLenHist);
    b.slt(R(7), R(13), R(9));           // key < h[j] ?
    b.beq(R(7), R(0), "sort_place");
    b.addi(R(15), R(14), 1);
    b.st(R(15), R(9), kLenHist);        // h[j+1] = h[j]
    b.subi(R(14), R(14), 1);
    b.jmp("sort_inner");
    b.label("sort_place");
    b.addi(R(15), R(14), 1);
    b.st(R(15), R(13), kLenHist);       // h[j+1] = key
    b.addi(R(10), R(10), 1);
    b.jmp("sort_outer");
    b.label("sort_end");

    // ---- phase 2c: checksum (bucket fold unrolled x8, length
    // histogram fold fully unrolled) ----
    b.movi(R(16), 0);                   // checksum
    for (int i = 0; i < 16; ++i) {
        b.ld(R(9), R(0), kLenHist + i);
        b.muli(R(16), R(16), 13);
        b.add(R(16), R(16), R(9));
    }
    b.movi(R(10), 0);
    b.label("cs_bkt");
    for (int u = 0; u < 8; ++u) {
        b.slti(R(7), R(10), kBuckets);
        b.beq(R(7), R(0), "cs_bkt_end");
        b.ld(R(9), R(10), kWCount);
        b.muli(R(16), R(16), 5);
        b.add(R(16), R(16), R(9));
        b.ld(R(9), R(10), kWSum);
        b.add(R(16), R(16), R(9));
        b.addi(R(10), R(10), 1);
    }
    b.jmp("cs_bkt");
    b.label("cs_bkt_end");
    b.add(R(16), R(16), R(11));         // hottest bucket index
    b.add(R(16), R(16), R(12));         // its count
    b.add(R(16), R(16), R(6));          // total words
    b.st(R(0), R(16), kChecksumAddr);
    b.halt();

    return b.build();
}

class PerlWorkload : public Workload
{
  public:
    PerlWorkload() : program_(buildPerlProgram()) {}

    std::string_view name() const override { return "perl"; }

    std::string_view
    description() const override
    {
        return "text scanner with word hashing and sorting (134.perl)";
    }

    const Program &program() const override { return program_; }

    size_t numInputSets() const override { return kInputs.size(); }

    MemoryImage
    input(size_t idx) const override
    {
        const PerlInput &in = kInputs.at(idx);
        MemoryImage image;
        std::vector<int64_t> text = makeText(in);
        image.store(kParamChars, static_cast<int64_t>(text.size()));
        image.storeBlock(kText, text);
        for (int64_t c = 97; c < 123; ++c)
            image.store(kClassTab + c, 1);  // letters
        return image;
    }

    int64_t referenceChecksum(size_t idx) const override;

  private:
    Program program_;
};

} // namespace

int64_t
PerlWorkload::referenceChecksum(size_t idx) const
{
    const PerlInput &in = kInputs.at(idx);
    std::vector<int64_t> text = makeText(in);

    std::vector<int64_t> wcount(kBuckets, 0), wsum(kBuckets, 0);
    std::vector<int64_t> lhist(16, 0);
    uint64_t hash = 0;
    int64_t len = 0;
    int64_t words = 0;

    auto end_word = [&]() {
        if (len == 0)
            return;
        int64_t bucket = static_cast<int64_t>(
            (hash * static_cast<uint64_t>(kHashMul)) >> 8) &
            (kBuckets - 1);
        ++wcount[static_cast<size_t>(bucket)];
        wsum[static_cast<size_t>(bucket)] = static_cast<int64_t>(
            static_cast<uint64_t>(wsum[static_cast<size_t>(bucket)]) +
            hash);
        int64_t l = len < 16 ? len : 15;
        ++lhist[static_cast<size_t>(l)];
        ++words;
        hash = 0;
        len = 0;
    };

    for (int64_t c : text) {
        bool letter = c >= 97 && c < 123;
        if (letter) {
            hash = hash * 31 + static_cast<uint64_t>(c);
            ++len;
        } else {
            end_word();
        }
    }
    end_word();

    // Argmax (first maximal bucket, matching the strict < in the asm).
    int64_t best_idx = 0, best_count = -1;
    for (int64_t i = 0; i < kBuckets; ++i) {
        if (best_count < wcount[static_cast<size_t>(i)]) {
            best_count = wcount[static_cast<size_t>(i)];
            best_idx = i;
        }
    }

    // Insertion sort of the length histogram.
    for (int i = 1; i < 16; ++i) {
        int64_t key = lhist[static_cast<size_t>(i)];
        int j = i - 1;
        while (j >= 0 && key < lhist[static_cast<size_t>(j)]) {
            lhist[static_cast<size_t>(j + 1)] =
                lhist[static_cast<size_t>(j)];
            --j;
        }
        lhist[static_cast<size_t>(j + 1)] = key;
    }

    uint64_t checksum = 0;
    for (int64_t h : lhist)
        checksum = checksum * 13 + static_cast<uint64_t>(h);
    for (int64_t i = 0; i < kBuckets; ++i) {
        checksum = checksum * 5 +
                   static_cast<uint64_t>(wcount[static_cast<size_t>(i)]);
        checksum += static_cast<uint64_t>(wsum[static_cast<size_t>(i)]);
    }
    checksum += static_cast<uint64_t>(best_idx) +
                static_cast<uint64_t>(best_count) +
                static_cast<uint64_t>(words);
    return static_cast<int64_t>(checksum);
}

std::unique_ptr<Workload>
makePerl()
{
    return std::make_unique<PerlWorkload>();
}

} // namespace vpprof
