/**
 * @file
 * Columnar (SoA) trace blocks: the unit of the v3 trace format and of
 * the batch-replay fast path.
 *
 * A dynamic trace is chopped into fixed-capacity blocks; inside a
 * block every TraceRecord field lives in its own column. Columns that
 * carry redundancy are compressed:
 *  - seq is elided entirely when the block is contiguous (the common
 *    case — record i's seq is firstSeq + i), falling back to an
 *    explicit delta column for arbitrary streams;
 *  - pc, value and memAddr are zigzag-delta varints (hot loops make
 *    consecutive pcs near-equal, and values/addresses stride);
 *  - opcodes and directives are dictionary-coded (a per-block table of
 *    the distinct bytes plus bit-packed indices — a block touching 16
 *    opcodes pays 4 bits per record, a single-directive block pays 0);
 *  - the boolean/2-bit fields (writesReg, isMem, numSrcs) pack into
 *    one nibble per record;
 *  - dest/src registers stay raw byte columns (already minimal).
 * value and memAddr normally cover only the records that define them
 * (writesReg / isMem); a block holding irregular hand-built records
 * (non-zero value on a non-producer) switches those columns to dense
 * so the encoding is lossless for ANY record stream.
 *
 * Every block carries an FNV-1a checksum over its header fields and
 * payload, so a flipped bit anywhere in a block — including its
 * framing — is a structured decode failure, never silent corruption.
 *
 * The same encoded bytes serve both the in-memory resident form
 * (ColumnarTrace — roughly 4-5x smaller than the 56-byte AoS records)
 * and the on-disk v3 payload (trace_io frames them after its header),
 * so spills are a single buffer write and adoption is a single read.
 */

#ifndef VPPROF_VM_TRACE_BLOCK_HH
#define VPPROF_VM_TRACE_BLOCK_HH

#include <cstdint>
#include <vector>

#include "vm/trace.hh"

namespace vpprof
{

/** Records per block: big enough to amortize headers and dictionaries,
 *  small enough that a decoded block's columns stay cache-resident. */
constexpr uint32_t kTraceBlockCapacity = 4096;

/** Encoded block header size (count, payloadBytes, firstSeq, flags,
 *  checksum), little-endian. */
constexpr size_t kTraceBlockHeaderBytes = 4 + 4 + 8 + 4 + 8;

/** Structured outcome of decoding one block. */
enum class TraceBlockStatus
{
    Ok,
    Truncated,        ///< framing extends past the available bytes
    ChecksumMismatch, ///< header/payload bytes fail the checksum
    Malformed,        ///< framing fields are self-inconsistent
};

/**
 * One decoded block as parallel columns. The pointers alias a
 * TraceBlockScratch (or a BlockAssembler's staging buffers) and are
 * valid until that buffer decodes/assembles the next block. `record()`
 * re-assembles the AoS record for consumers that want one.
 */
struct TraceBlockView
{
    uint32_t count = 0;
    uint64_t firstSeq = 0;
    const uint64_t *seq = nullptr;
    const uint64_t *pc = nullptr;
    const uint8_t *op = nullptr;        ///< raw Opcode values
    const uint8_t *directive = nullptr; ///< raw Directive values
    const uint8_t *writesReg = nullptr; ///< 0/1
    const uint8_t *dest = nullptr;
    const int64_t *value = nullptr;
    const uint8_t *numSrcs = nullptr;
    const uint8_t *src0 = nullptr;
    const uint8_t *src1 = nullptr;
    const uint8_t *isMem = nullptr;     ///< 0/1
    const uint64_t *memAddr = nullptr;

    TraceRecord
    record(size_t i) const
    {
        TraceRecord rec;
        rec.seq = seq[i];
        rec.pc = pc[i];
        rec.op = static_cast<Opcode>(op[i]);
        rec.directive = static_cast<Directive>(directive[i]);
        rec.writesReg = writesReg[i] != 0;
        rec.dest = dest[i];
        rec.value = value[i];
        rec.numSrcs = numSrcs[i];
        rec.srcs = {src0[i], src1[i]};
        rec.isMem = isMem[i] != 0;
        rec.memAddr = memAddr[i];
        return rec;
    }
};

/** Reusable decode/staging columns (one per replaying thread). */
struct TraceBlockScratch
{
    TraceBlockScratch();

    std::vector<uint64_t> seq, pc, memAddr;
    std::vector<int64_t> value;
    std::vector<uint8_t> op, directive, writesReg, isMem, numSrcs,
        dest, src0, src1;

    /** A view over the first `count` entries of these columns. */
    TraceBlockView view(uint32_t count, uint64_t firstSeq) const;
};

/** Block-level trace consumer (the batch-replay counterpart of
 *  TraceSink). Blocks arrive in trace order; boundaries carry no
 *  meaning — only the concatenated record stream does. */
class TraceBlockSink
{
  public:
    virtual ~TraceBlockSink() = default;

    virtual void consumeBlock(const TraceBlockView &block) = 0;
};

/**
 * Accumulates records and emits encoded blocks. flush() appends one
 * encoded block (header + compressed columns) for the buffered
 * records; callers flush whenever full() (and once more at the end
 * for the partial tail block).
 */
class TraceBlockEncoder
{
  public:
    TraceBlockEncoder();

    void add(const TraceRecord &rec);

    bool full() const { return count_ == kTraceBlockCapacity; }
    uint32_t pending() const { return count_; }

    /** Encode and append the buffered records to `out`; resets. */
    void flush(std::vector<uint8_t> &out);

  private:
    TraceBlockScratch stage_;
    uint32_t count_ = 0;
    uint64_t firstSeq_ = 0;
    bool seqContiguous_ = true;
    bool valueDense_ = false;
    bool memDense_ = false;
};

/**
 * Decode the block at `data` (at most `size` bytes available). On Ok
 * fills `view` (pointers into `scratch`) and `*consumed` with the
 * block's total encoded size. `verifyChecksum` selects the integrity
 * pass; decoding is bounds-checked either way, so corrupt bytes are a
 * structured status, never UB.
 */
TraceBlockStatus decodeTraceBlock(const uint8_t *data, size_t size,
                                  TraceBlockScratch &scratch,
                                  TraceBlockView &view,
                                  size_t *consumed,
                                  bool verifyChecksum);

/**
 * Walk one block's framing without decoding its columns: validates
 * the header bounds (and the checksum when asked), returning the
 * block's record count and encoded size. With a non-null `maxPc` it
 * also decodes the pc column alone and reports its largest pc.
 */
TraceBlockStatus probeTraceBlock(const uint8_t *data, size_t size,
                                 size_t *consumed, uint32_t *count,
                                 bool verifyChecksum,
                                 uint64_t *maxPc = nullptr);

/**
 * A whole trace in encoded-block form: the resident representation of
 * the TraceRepository and the exact payload of a v3 trace file.
 */
struct ColumnarTrace
{
    std::vector<uint8_t> bytes;  ///< concatenated encoded blocks
    uint64_t records = 0;
    uint64_t blocks = 0;

    bool empty() const { return records == 0; }
};

/**
 * TraceSink that captures a stream into a ColumnarTrace (the VM's
 * capture path: records encode on the fly, so a 1M-instruction run
 * never materializes 64-byte AoS records).
 */
class ColumnarTraceBuilder : public TraceSink
{
  public:
    void
    record(const TraceRecord &rec) override
    {
        encoder_.add(rec);
        if (encoder_.full()) {
            encoder_.flush(trace_.bytes);
            ++trace_.blocks;
        }
        ++trace_.records;
    }

    /** Flush the tail block and surrender the trace. */
    ColumnarTrace
    take()
    {
        if (encoder_.pending() > 0) {
            encoder_.flush(trace_.bytes);
            ++trace_.blocks;
        }
        ColumnarTrace out = std::move(trace_);
        trace_ = ColumnarTrace{};
        return out;
    }

  private:
    TraceBlockEncoder encoder_;
    ColumnarTrace trace_;
};

/**
 * Stream a ColumnarTrace's blocks through `sink`, decoding each block
 * once into `scratch`. Returns records delivered. The encoded bytes
 * were produced in-process, so decoding is infallible here (a failure
 * panics — it would be memory corruption, not an I/O condition).
 */
uint64_t replayColumnarTrace(const ColumnarTrace &trace,
                             TraceBlockScratch &scratch,
                             TraceBlockSink *sink);

} // namespace vpprof

#endif // VPPROF_VM_TRACE_BLOCK_HH
