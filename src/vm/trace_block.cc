#include "vm/trace_block.hh"

#include <algorithm>
#include <cstring>

#include "common/checksum.hh"
#include "common/logging.hh"

namespace vpprof
{

namespace
{

// Block flag bits (header `flags` field).
constexpr uint32_t kFlagSeqExplicit = 1u << 0; ///< seq column present
constexpr uint32_t kFlagValueDense = 1u << 1;  ///< value for all records
constexpr uint32_t kFlagMemDense = 1u << 2;    ///< memAddr for all records
constexpr uint32_t kFlagKnownMask =
    kFlagSeqExplicit | kFlagValueDense | kFlagMemDense;

// Header field offsets within the 28-byte block header. The checksum
// is stored last and covers the preceding header bytes plus the
// payload, so corruption of the framing itself (count, size, firstSeq)
// is caught, not just payload damage.
constexpr size_t kOffCount = 0;
constexpr size_t kOffPayloadBytes = 4;
constexpr size_t kOffFirstSeq = 8;
constexpr size_t kOffFlags = 16;
constexpr size_t kOffChecksum = 20;

// The block checksum's FNV-1a seed. It is one digit short of the
// standard offset basis (kFnv1a64Seed), but every v3 file on disk was
// written with it: it is part of the format, not a typo to fix.
constexpr uint64_t kBlockChecksumSeed = 1469598103934665603ull;

void
putU32(uint8_t *out, uint32_t v)
{
    out[0] = uint8_t(v);
    out[1] = uint8_t(v >> 8);
    out[2] = uint8_t(v >> 16);
    out[3] = uint8_t(v >> 24);
}

void
putU64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = uint8_t(v >> (8 * i));
}

uint32_t
getU32(const uint8_t *in)
{
    return uint32_t(in[0]) | uint32_t(in[1]) << 8 | uint32_t(in[2]) << 16 |
           uint32_t(in[3]) << 24;
}

uint64_t
getU64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(in[i]) << (8 * i);
    return v;
}

// Zigzag maps small-magnitude signed deltas (positive or negative) to
// small unsigned varints. Deltas are computed in uint64 so wraparound
// is well defined for arbitrary 64-bit jumps.
uint64_t
zigzag(uint64_t delta)
{
    int64_t s = int64_t(delta);
    return (uint64_t(s) << 1) ^ uint64_t(s >> 63);
}

uint64_t
unzigzag(uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(uint8_t(v));
}

// Bounds-checked byte cursor over untrusted payload bytes. Reads past
// the end latch `ok` false and return zeros; callers check once per
// column rather than per byte.
struct Cursor
{
    const uint8_t *p;
    const uint8_t *end;
    bool ok = true;

    uint64_t
    varint()
    {
        uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (p == end || shift > 63) {
                ok = false;
                return 0;
            }
            uint8_t b = *p++;
            v |= uint64_t(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    const uint8_t *
    bytes(size_t n)
    {
        if (size_t(end - p) < n) {
            ok = false;
            return nullptr;
        }
        const uint8_t *at = p;
        p += n;
        return at;
    }

    uint16_t
    u16()
    {
        const uint8_t *b = bytes(2);
        if (!b)
            return 0;
        return uint16_t(b[0]) | uint16_t(b[1]) << 8;
    }
};

int
bitsFor(size_t dictSize)
{
    int bits = 0;
    while ((size_t(1) << bits) < dictSize)
        ++bits;
    return bits;
}

// Dictionary-code one byte column: u16 dict size, the dict bytes in
// first-appearance order, then LSB-first bit-packed indices. A column
// with one distinct value costs 3 bytes for the whole block.
void
encodeDictColumn(std::vector<uint8_t> &out, const uint8_t *col,
                 uint32_t count)
{
    uint8_t index[256];
    uint8_t dict[256];
    bool seen[256] = {};
    size_t dictSize = 0;
    for (uint32_t i = 0; i < count; ++i) {
        uint8_t v = col[i];
        if (!seen[v]) {
            seen[v] = true;
            index[v] = uint8_t(dictSize);
            dict[dictSize++] = v;
        }
    }
    out.push_back(uint8_t(dictSize));
    out.push_back(uint8_t(dictSize >> 8));
    out.insert(out.end(), dict, dict + dictSize);
    int width = bitsFor(dictSize);
    if (width == 0)
        return;
    uint64_t acc = 0;
    int accBits = 0;
    for (uint32_t i = 0; i < count; ++i) {
        acc |= uint64_t(index[col[i]]) << accBits;
        accBits += width;
        while (accBits >= 8) {
            out.push_back(uint8_t(acc));
            acc >>= 8;
            accBits -= 8;
        }
    }
    if (accBits > 0)
        out.push_back(uint8_t(acc));
}

bool
decodeDictColumn(Cursor &cur, uint8_t *col, uint32_t count)
{
    uint16_t dictSize = cur.u16();
    if (!cur.ok || dictSize == 0 || dictSize > 256)
        return false;
    const uint8_t *dict = cur.bytes(dictSize);
    if (!dict)
        return false;
    int width = bitsFor(dictSize);
    if (width == 0) {
        std::memset(col, dict[0], count);
        return true;
    }
    size_t packed = (size_t(count) * width + 7) / 8;
    const uint8_t *bits = cur.bytes(packed);
    if (!bits)
        return false;
    uint64_t acc = 0;
    int accBits = 0;
    size_t next = 0;
    uint32_t mask = (1u << width) - 1;
    for (uint32_t i = 0; i < count; ++i) {
        while (accBits < width) {
            acc |= uint64_t(bits[next++]) << accBits;
            accBits += 8;
        }
        uint32_t idx = uint32_t(acc) & mask;
        acc >>= width;
        accBits -= width;
        if (idx >= dictSize)
            return false;
        col[i] = dict[idx];
    }
    return true;
}

} // namespace

TraceBlockScratch::TraceBlockScratch()
    : seq(kTraceBlockCapacity), pc(kTraceBlockCapacity),
      memAddr(kTraceBlockCapacity), value(kTraceBlockCapacity),
      op(kTraceBlockCapacity), directive(kTraceBlockCapacity),
      writesReg(kTraceBlockCapacity), isMem(kTraceBlockCapacity),
      numSrcs(kTraceBlockCapacity), dest(kTraceBlockCapacity),
      src0(kTraceBlockCapacity), src1(kTraceBlockCapacity)
{
}

TraceBlockView
TraceBlockScratch::view(uint32_t count, uint64_t firstSeq) const
{
    TraceBlockView v;
    v.count = count;
    v.firstSeq = firstSeq;
    v.seq = seq.data();
    v.pc = pc.data();
    v.op = op.data();
    v.directive = directive.data();
    v.writesReg = writesReg.data();
    v.dest = dest.data();
    v.value = value.data();
    v.numSrcs = numSrcs.data();
    v.src0 = src0.data();
    v.src1 = src1.data();
    v.isMem = isMem.data();
    v.memAddr = memAddr.data();
    return v;
}

TraceBlockEncoder::TraceBlockEncoder() = default;

void
TraceBlockEncoder::add(const TraceRecord &rec)
{
    if (count_ == kTraceBlockCapacity)
        vpprof_panic("trace block encoder overflow: flush() not called");
    if (rec.numSrcs > 3)
        vpprof_panic("trace record numSrcs ", int(rec.numSrcs),
                     " exceeds the v3 format limit of 3");
    if (count_ == 0) {
        firstSeq_ = rec.seq;
        seqContiguous_ = true;
        valueDense_ = false;
        memDense_ = false;
    } else if (rec.seq != firstSeq_ + count_) {
        seqContiguous_ = false;
    }
    if (!rec.writesReg && rec.value != 0)
        valueDense_ = true;
    if (!rec.isMem && rec.memAddr != 0)
        memDense_ = true;
    uint32_t i = count_++;
    stage_.seq[i] = rec.seq;
    stage_.pc[i] = rec.pc;
    stage_.op[i] = uint8_t(rec.op);
    stage_.directive[i] = uint8_t(rec.directive);
    stage_.writesReg[i] = rec.writesReg ? 1 : 0;
    stage_.dest[i] = rec.dest;
    stage_.value[i] = rec.value;
    stage_.numSrcs[i] = rec.numSrcs;
    stage_.src0[i] = rec.srcs[0];
    stage_.src1[i] = rec.srcs[1];
    stage_.isMem[i] = rec.isMem ? 1 : 0;
    stage_.memAddr[i] = rec.memAddr;
}

void
TraceBlockEncoder::flush(std::vector<uint8_t> &out)
{
    if (count_ == 0)
        vpprof_panic("flush() on an empty trace block encoder");
    uint32_t flags = 0;
    if (!seqContiguous_)
        flags |= kFlagSeqExplicit;
    if (valueDense_)
        flags |= kFlagValueDense;
    if (memDense_)
        flags |= kFlagMemDense;

    size_t headerAt = out.size();
    out.resize(headerAt + kTraceBlockHeaderBytes);

    // Payload columns, in fixed order.
    if (flags & kFlagSeqExplicit) {
        uint64_t prev = firstSeq_;
        for (uint32_t i = 0; i < count_; ++i) {
            putVarint(out, zigzag(stage_.seq[i] - prev));
            prev = stage_.seq[i];
        }
    }
    uint64_t prevPc = 0;
    for (uint32_t i = 0; i < count_; ++i) {
        putVarint(out, zigzag(stage_.pc[i] - prevPc));
        prevPc = stage_.pc[i];
    }
    encodeDictColumn(out, stage_.op.data(), count_);
    encodeDictColumn(out, stage_.directive.data(), count_);
    // writesReg | isMem | numSrcs, two records per byte.
    for (uint32_t i = 0; i < count_; i += 2) {
        uint8_t lo = uint8_t(stage_.writesReg[i] | stage_.isMem[i] << 1 |
                             (stage_.numSrcs[i] & 3) << 2);
        uint8_t hi = 0;
        if (i + 1 < count_)
            hi = uint8_t(stage_.writesReg[i + 1] | stage_.isMem[i + 1] << 1 |
                         (stage_.numSrcs[i + 1] & 3) << 2);
        out.push_back(uint8_t(lo | hi << 4));
    }
    out.insert(out.end(), stage_.dest.begin(), stage_.dest.begin() + count_);
    out.insert(out.end(), stage_.src0.begin(), stage_.src0.begin() + count_);
    out.insert(out.end(), stage_.src1.begin(), stage_.src1.begin() + count_);
    uint64_t prevValue = 0;
    for (uint32_t i = 0; i < count_; ++i) {
        if (!valueDense_ && !stage_.writesReg[i])
            continue;
        uint64_t v = uint64_t(stage_.value[i]);
        putVarint(out, zigzag(v - prevValue));
        prevValue = v;
    }
    uint64_t prevAddr = 0;
    for (uint32_t i = 0; i < count_; ++i) {
        if (!memDense_ && !stage_.isMem[i])
            continue;
        putVarint(out, zigzag(stage_.memAddr[i] - prevAddr));
        prevAddr = stage_.memAddr[i];
    }

    size_t payloadBytes = out.size() - headerAt - kTraceBlockHeaderBytes;
    uint8_t *header = out.data() + headerAt;
    putU32(header + kOffCount, count_);
    putU32(header + kOffPayloadBytes, uint32_t(payloadBytes));
    putU64(header + kOffFirstSeq, firstSeq_);
    putU32(header + kOffFlags, flags);
    uint64_t sum = fnv1a64(header, kOffChecksum, kBlockChecksumSeed);
    sum = fnv1a64(header + kTraceBlockHeaderBytes, payloadBytes, sum);
    putU64(header + kOffChecksum, sum);

    count_ = 0;
}

TraceBlockStatus
probeTraceBlock(const uint8_t *data, size_t size, size_t *consumed,
                uint32_t *count, bool verifyChecksum, uint64_t *maxPc)
{
    if (size < kTraceBlockHeaderBytes)
        return TraceBlockStatus::Truncated;
    uint32_t n = getU32(data + kOffCount);
    uint32_t payloadBytes = getU32(data + kOffPayloadBytes);
    uint32_t flags = getU32(data + kOffFlags);
    if (n == 0 || n > kTraceBlockCapacity || (flags & ~kFlagKnownMask))
        return TraceBlockStatus::Malformed;
    if (payloadBytes > size - kTraceBlockHeaderBytes)
        return TraceBlockStatus::Truncated;
    if (verifyChecksum) {
        uint64_t sum = fnv1a64(data, kOffChecksum, kBlockChecksumSeed);
        sum = fnv1a64(data + kTraceBlockHeaderBytes, payloadBytes, sum);
        if (sum != getU64(data + kOffChecksum))
            return TraceBlockStatus::ChecksumMismatch;
    }
    if (maxPc != nullptr) {
        // The pc column leads the payload, behind the seq deltas of a
        // non-contiguous block.
        Cursor cur{data + kTraceBlockHeaderBytes,
                   data + kTraceBlockHeaderBytes + payloadBytes};
        if (flags & kFlagSeqExplicit)
            for (uint32_t i = 0; i < n; ++i)
                cur.varint();
        uint64_t pc = 0;
        uint64_t top = 0;
        for (uint32_t i = 0; i < n; ++i) {
            pc += unzigzag(cur.varint());
            top = std::max(top, pc);
        }
        if (!cur.ok)
            return TraceBlockStatus::Malformed;
        *maxPc = top;
    }
    *consumed = kTraceBlockHeaderBytes + payloadBytes;
    *count = n;
    return TraceBlockStatus::Ok;
}

TraceBlockStatus
decodeTraceBlock(const uint8_t *data, size_t size,
                 TraceBlockScratch &scratch, TraceBlockView &view,
                 size_t *consumed, bool verifyChecksum)
{
    uint32_t count = 0;
    TraceBlockStatus st =
        probeTraceBlock(data, size, consumed, &count, verifyChecksum);
    if (st != TraceBlockStatus::Ok)
        return st;
    uint64_t firstSeq = getU64(data + kOffFirstSeq);
    uint32_t flags = getU32(data + kOffFlags);
    uint32_t payloadBytes = getU32(data + kOffPayloadBytes);
    Cursor cur{data + kTraceBlockHeaderBytes,
               data + kTraceBlockHeaderBytes + payloadBytes};

    if (flags & kFlagSeqExplicit) {
        uint64_t prev = firstSeq;
        for (uint32_t i = 0; i < count; ++i) {
            prev += unzigzag(cur.varint());
            scratch.seq[i] = prev;
        }
    } else {
        for (uint32_t i = 0; i < count; ++i)
            scratch.seq[i] = firstSeq + i;
    }
    uint64_t prevPc = 0;
    for (uint32_t i = 0; i < count; ++i) {
        prevPc += unzigzag(cur.varint());
        scratch.pc[i] = prevPc;
    }
    if (!cur.ok || !decodeDictColumn(cur, scratch.op.data(), count) ||
        !decodeDictColumn(cur, scratch.directive.data(), count)) {
        return TraceBlockStatus::Malformed;
    }
    const uint8_t *nibbles = cur.bytes((count + 1) / 2);
    if (!nibbles)
        return TraceBlockStatus::Malformed;
    for (uint32_t i = 0; i < count; ++i) {
        uint8_t nib = nibbles[i / 2] >> (4 * (i & 1)) & 0x0f;
        scratch.writesReg[i] = nib & 1;
        scratch.isMem[i] = nib >> 1 & 1;
        scratch.numSrcs[i] = nib >> 2 & 3;
    }
    const uint8_t *destCol = cur.bytes(count);
    const uint8_t *src0Col = cur.bytes(count);
    const uint8_t *src1Col = cur.bytes(count);
    if (!src1Col)
        return TraceBlockStatus::Malformed;
    std::memcpy(scratch.dest.data(), destCol, count);
    std::memcpy(scratch.src0.data(), src0Col, count);
    std::memcpy(scratch.src1.data(), src1Col, count);
    bool valueDense = (flags & kFlagValueDense) != 0;
    uint64_t prevValue = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (valueDense || scratch.writesReg[i]) {
            prevValue += unzigzag(cur.varint());
            scratch.value[i] = int64_t(prevValue);
        } else {
            scratch.value[i] = 0;
        }
    }
    bool memDense = (flags & kFlagMemDense) != 0;
    uint64_t prevAddr = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (memDense || scratch.isMem[i]) {
            prevAddr += unzigzag(cur.varint());
            scratch.memAddr[i] = prevAddr;
        } else {
            scratch.memAddr[i] = 0;
        }
    }
    if (!cur.ok || cur.p != cur.end)
        return TraceBlockStatus::Malformed;
    view = scratch.view(count, firstSeq);
    return TraceBlockStatus::Ok;
}

uint64_t
replayColumnarTrace(const ColumnarTrace &trace, TraceBlockScratch &scratch,
                    TraceBlockSink *sink)
{
    const uint8_t *data = trace.bytes.data();
    size_t remaining = trace.bytes.size();
    uint64_t delivered = 0;
    while (remaining > 0) {
        TraceBlockView view;
        size_t consumed = 0;
        TraceBlockStatus st = decodeTraceBlock(data, remaining, scratch,
                                               view, &consumed, false);
        if (st != TraceBlockStatus::Ok)
            vpprof_panic("resident columnar trace failed to decode "
                         "(in-memory corruption)");
        sink->consumeBlock(view);
        delivered += view.count;
        data += consumed;
        remaining -= consumed;
    }
    if (delivered != trace.records)
        vpprof_panic("resident columnar trace record count mismatch: ",
                     delivered, " decoded vs ", trace.records, " captured");
    return delivered;
}

} // namespace vpprof
