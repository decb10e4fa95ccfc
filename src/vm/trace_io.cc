#include "vm/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"

namespace vpprof
{

namespace
{

constexpr char kMagicPrefix[7] = {'V', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr char kVersionV1 = '1';
constexpr char kVersionV2 = '2';
constexpr char kVersionV3 = '3';
constexpr size_t kHeaderBytes = 16;
constexpr size_t kTrailerBytes = 8;
constexpr size_t kRecordBytes = 8 + 8 + 1 + 1 + 1 + 1 + 8 + 1 + 2 + 8;

/** Serialize one record into a fixed-width buffer. */
void
encode(const TraceRecord &rec, char *buf)
{
    size_t off = 0;
    auto put = [&](const void *p, size_t n) {
        std::memcpy(buf + off, p, n);
        off += n;
    };
    put(&rec.seq, 8);
    put(&rec.pc, 8);
    uint8_t op = static_cast<uint8_t>(rec.op);
    put(&op, 1);
    uint8_t dir = static_cast<uint8_t>(rec.directive);
    put(&dir, 1);
    uint8_t flags = (rec.writesReg ? 1 : 0) | (rec.isMem ? 2 : 0);
    put(&flags, 1);
    put(&rec.dest, 1);
    put(&rec.value, 8);
    put(&rec.numSrcs, 1);
    put(rec.srcs.data(), 2);
    put(&rec.memAddr, 8);
}

/** Deserialize one record from a fixed-width buffer. */
void
decode(const char *buf, TraceRecord &rec)
{
    size_t off = 0;
    auto get = [&](void *p, size_t n) {
        std::memcpy(p, buf + off, n);
        off += n;
    };
    get(&rec.seq, 8);
    get(&rec.pc, 8);
    uint8_t op = 0;
    get(&op, 1);
    rec.op = static_cast<Opcode>(op);
    uint8_t dir = 0;
    get(&dir, 1);
    rec.directive = static_cast<Directive>(dir);
    uint8_t flags = 0;
    get(&flags, 1);
    rec.writesReg = (flags & 1) != 0;
    rec.isMem = (flags & 2) != 0;
    get(&rec.dest, 1);
    get(&rec.value, 8);
    get(&rec.numSrcs, 1);
    get(rec.srcs.data(), 2);
    get(&rec.memAddr, 8);
}

/** Map the current errno of a failed write to a TraceIoStatus. */
TraceIoStatus
writeErrnoStatus()
{
    return errno == ENOSPC ? TraceIoStatus::NoSpace
                           : TraceIoStatus::WriteFailed;
}

} // namespace

const char *
traceIoStatusName(TraceIoStatus status)
{
    switch (status) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::IoError: return "io-error";
      case TraceIoStatus::ShortHeader: return "short-header";
      case TraceIoStatus::BadMagic: return "bad-magic";
      case TraceIoStatus::VersionMismatch: return "version-mismatch";
      case TraceIoStatus::Truncated: return "truncated";
      case TraceIoStatus::TruncatedFile: return "truncated-file";
      case TraceIoStatus::ChecksumMismatch: return "checksum-mismatch";
      case TraceIoStatus::PcOutOfRange: return "pc-out-of-range";
      case TraceIoStatus::WriteFailed: return "write-failed";
      case TraceIoStatus::NoSpace: return "no-space";
    }
    return "unknown";
}

TraceFormat
defaultTraceFormat()
{
    const char *env = std::getenv("VPPROF_TRACE_FORMAT");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "3") == 0)
        return TraceFormat::V3;
    if (std::strcmp(env, "2") == 0)
        return TraceFormat::V2;
    vpprof_fatal("VPPROF_TRACE_FORMAT must be \"2\" or \"3\", got \"",
                 env, "\"");
}

TraceFileWriter::TraceFileWriter(const std::string &path)
    : TraceFileWriter(path, defaultTraceFormat())
{
}

TraceFileWriter::TraceFileWriter(const std::string &path, TraceFormat format)
    : path_(path),
      tmpPath_(path + ".tmp." + std::to_string(::getpid())),
      format_(format),
      checksum_(kFnv1a64Seed)
{
    errno = 0;
    out_.open(tmpPath_, std::ios::binary | std::ios::trunc);
    if (!out_) {
        status_ = TraceIoStatus::IoError;
        return;
    }
    out_.write(kMagicPrefix, sizeof(kMagicPrefix));
    const char version =
        format_ == TraceFormat::V3 ? kVersionV3 : kVersionV2;
    out_.write(&version, 1);
    uint64_t placeholder = 0;
    out_.write(reinterpret_cast<const char *>(&placeholder), 8);
    if (!out_)
        status_ = writeErrnoStatus();
}

TraceFileWriter::~TraceFileWriter()
{
    if (!closed_ && close() != TraceIoStatus::Ok)
        vpprof_warn_limited(8, "trace file write failed (",
                            traceIoStatusName(status_), "): ", path_);
}

void
TraceFileWriter::flushBlock()
{
    if (encoder_.pending() == 0)
        return;
    blockBuf_.clear();
    encoder_.flush(blockBuf_);
    if (corruptPending_ > 0) {
        // The block checksum was computed over the bytes we *meant*
        // to write; damaging the payload now models a storage-level
        // flip that readers must catch.
        size_t payloadBytes = blockBuf_.size() - kTraceBlockHeaderBytes;
        for (uint64_t k = 0; k < corruptPending_; ++k)
            blockBuf_[kTraceBlockHeaderBytes + k % payloadBytes] ^= 0x5a;
        corruptPending_ = 0;
    }
    errno = 0;
    out_.write(reinterpret_cast<const char *>(blockBuf_.data()),
               static_cast<std::streamsize>(blockBuf_.size()));
    if (!out_)
        status_ = writeErrnoStatus();
}

void
TraceFileWriter::record(const TraceRecord &rec)
{
    if (closed_)
        vpprof_panic("TraceFileWriter::record after close");
    if (status_ != TraceIoStatus::Ok)
        return;  // error latched; close() surfaces it

    if (format_ == TraceFormat::V3) {
        switch (FailpointRegistry::instance().fire("trace_io.write")) {
          case FailpointAction::Fail:
            status_ = TraceIoStatus::WriteFailed;
            return;
          case FailpointAction::NoSpace:
            status_ = TraceIoStatus::NoSpace;
            return;
          case FailpointAction::Corrupt:
            ++corruptPending_;
            break;
          default:
            break;
        }
        encoder_.add(rec);
        if (encoder_.full())
            flushBlock();
        if (status_ == TraceIoStatus::Ok)
            ++count_;
        return;
    }

    char buf[kRecordBytes];
    encode(rec, buf);
    // The trailer covers the bytes we *meant* to write: an injected
    // Corrupt damages the file, not the checksum, exactly like a
    // storage-level flip — readers must catch it.
    checksum_ = fnv1a64(buf, sizeof(buf), checksum_);

    switch (FailpointRegistry::instance().fire("trace_io.write")) {
      case FailpointAction::Fail:
        status_ = TraceIoStatus::WriteFailed;
        return;
      case FailpointAction::NoSpace:
        status_ = TraceIoStatus::NoSpace;
        return;
      case FailpointAction::Corrupt:
        buf[0] = static_cast<char>(buf[0] ^ 0x5a);
        break;
      default:
        break;
    }

    errno = 0;
    out_.write(buf, sizeof(buf));
    if (!out_) {
        status_ = writeErrnoStatus();
        return;
    }
    ++count_;
}

TraceIoStatus
TraceFileWriter::close()
{
    if (closed_)
        return status_;
    closed_ = true;

    if (status_ == TraceIoStatus::Ok && format_ == TraceFormat::V3)
        flushBlock();  // the partial tail block

    if (status_ == TraceIoStatus::Ok) {
        errno = 0;
        if (format_ == TraceFormat::V2)
            out_.write(reinterpret_cast<const char *>(&checksum_),
                       kTrailerBytes);
        out_.seekp(sizeof(kMagicPrefix) + 1);
        out_.write(reinterpret_cast<const char *>(&count_), 8);
        out_.flush();
        if (!out_)
            status_ = writeErrnoStatus();
    }

    if (status_ == TraceIoStatus::Ok) {
        switch (FailpointRegistry::instance().fire("trace_io.commit")) {
          case FailpointAction::Fail:
            status_ = TraceIoStatus::WriteFailed;
            break;
          case FailpointAction::NoSpace:
            status_ = TraceIoStatus::NoSpace;
            break;
          default:
            break;
        }
    }

    out_.close();
    if (status_ == TraceIoStatus::Ok && !out_)
        status_ = writeErrnoStatus();

    if (status_ == TraceIoStatus::Ok) {
        // The commit point: the complete, checksummed file replaces
        // whatever was at `path_` in one atomic step.
        errno = 0;
        if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0)
            status_ = writeErrnoStatus();
    }
    if (status_ != TraceIoStatus::Ok)
        std::remove(tmpPath_.c_str());  // never leave a torn temp
    return status_;
}

TraceIoStatus
writeColumnarTraceFile(const std::string &path, const ColumnarTrace &trace)
{
    std::string tmpPath = path + ".tmp." + std::to_string(::getpid());
    errno = 0;
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    if (!out)
        return TraceIoStatus::IoError;
    TraceIoStatus status = TraceIoStatus::Ok;
    out.write(kMagicPrefix, sizeof(kMagicPrefix));
    out.write(&kVersionV3, 1);
    out.write(reinterpret_cast<const char *>(&trace.records), 8);
    if (!out)
        status = writeErrnoStatus();

    const uint8_t *data = trace.bytes.data();
    size_t remaining = trace.bytes.size();
    std::vector<uint8_t> damaged;  // only under injected corruption
    while (status == TraceIoStatus::Ok && remaining > 0) {
        size_t consumed = 0;
        uint32_t blockRecords = 0;
        if (probeTraceBlock(data, remaining, &consumed, &blockRecords,
                            false) != TraceBlockStatus::Ok)
            vpprof_panic("resident columnar trace has invalid framing "
                         "(in-memory corruption): ", path);
        const uint8_t *blockBytes = data;
        switch (FailpointRegistry::instance().fire("trace_io.write")) {
          case FailpointAction::Fail:
            status = TraceIoStatus::WriteFailed;
            break;
          case FailpointAction::NoSpace:
            status = TraceIoStatus::NoSpace;
            break;
          case FailpointAction::Corrupt:
            damaged.assign(data, data + consumed);
            damaged[kTraceBlockHeaderBytes] ^= 0x5a;
            blockBytes = damaged.data();
            break;
          default:
            break;
        }
        if (status != TraceIoStatus::Ok)
            break;
        errno = 0;
        out.write(reinterpret_cast<const char *>(blockBytes),
                  static_cast<std::streamsize>(consumed));
        if (!out) {
            status = writeErrnoStatus();
            break;
        }
        data += consumed;
        remaining -= consumed;
    }

    if (status == TraceIoStatus::Ok) {
        errno = 0;
        out.flush();
        if (!out)
            status = writeErrnoStatus();
    }
    if (status == TraceIoStatus::Ok) {
        switch (FailpointRegistry::instance().fire("trace_io.commit")) {
          case FailpointAction::Fail:
            status = TraceIoStatus::WriteFailed;
            break;
          case FailpointAction::NoSpace:
            status = TraceIoStatus::NoSpace;
            break;
          default:
            break;
        }
    }
    out.close();
    if (status == TraceIoStatus::Ok && !out)
        status = writeErrnoStatus();
    if (status == TraceIoStatus::Ok) {
        errno = 0;
        if (std::rename(tmpPath.c_str(), path.c_str()) != 0)
            status = writeErrnoStatus();
    }
    if (status != TraceIoStatus::Ok)
        std::remove(tmpPath.c_str());
    return status;
}

TraceFileReader::TraceFileReader(const std::string &path, Unchecked)
    : path_(path),
      in_(path, std::ios::binary),
      version_(kVersionV2)
{
}

TraceFileReader::~TraceFileReader()
{
    if (mapBase_ != nullptr)
        ::munmap(mapBase_, mapSize_);
}

TraceIoStatus
TraceFileReader::mapBlocks(TraceVerify verify)
{
    in_.close();  // the ifstream served only the header probe

    int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        return TraceIoStatus::IoError;
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return TraceIoStatus::IoError;
    }
    size_t size = static_cast<size_t>(st.st_size);
    if (size < kHeaderBytes) {
        // The header we just parsed is gone: the file shrank between
        // the probe and the map.
        ::close(fd);
        return TraceIoStatus::TruncatedFile;
    }
    if (size > kHeaderBytes) {
        void *base =
            ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (base != MAP_FAILED) {
            mapBase_ = base;
            mapSize_ = size;
            payload_ = static_cast<const uint8_t *>(base) + kHeaderBytes;
        } else {
            // mmap can fail legitimately (map-count limits, exotic
            // filesystems); fall back to buffering the file.
            std::ifstream fallback(path_, std::ios::binary);
            ownedBytes_.resize(size);
            fallback.read(reinterpret_cast<char *>(ownedBytes_.data()),
                          static_cast<std::streamsize>(size));
            if (!fallback) {
                ::close(fd);
                return TraceIoStatus::IoError;
            }
            payload_ = ownedBytes_.data() + kHeaderBytes;
        }
    }
    ::close(fd);
    payloadSize_ = size - kHeaderBytes;
    mappedBytes_ = size;

    // Walk the block framing: every block must parse (and checksum,
    // under Full verification) and the per-block counts must sum to
    // exactly what the header promises. A writer that died before
    // close() leaves a torn tail block — the distinct TruncatedFile
    // status, so quarantine logs name the real failure.
    // A Full walk with a pc limit also bounds each block's pc column:
    // block checksums prove the bytes intact, not that they belong to
    // this program.
    bool full = verify == TraceVerify::Full;
    bool checkPcs = full && pcLimit_ != 0;
    size_t off = 0;
    uint64_t total = 0;
    uint64_t blocks = 0;
    while (off < payloadSize_) {
        size_t consumed = 0;
        uint32_t blockRecords = 0;
        uint64_t maxPc = 0;
        switch (probeTraceBlock(payload_ + off, payloadSize_ - off,
                                &consumed, &blockRecords, full,
                                checkPcs ? &maxPc : nullptr)) {
          case TraceBlockStatus::Ok:
            break;
          case TraceBlockStatus::Truncated:
            vpprof_warn_limited(8, "trace file has a torn tail block (",
                                traceIoStatusName(
                                    TraceIoStatus::TruncatedFile),
                                "): ", path_);
            return TraceIoStatus::TruncatedFile;
          case TraceBlockStatus::ChecksumMismatch:
            return TraceIoStatus::ChecksumMismatch;
          case TraceBlockStatus::Malformed:
            // Framing fields that parse to nonsense are corruption,
            // same integrity boundary as a bad checksum.
            return TraceIoStatus::ChecksumMismatch;
        }
        if (checkPcs && maxPc >= pcLimit_)
            return TraceIoStatus::PcOutOfRange;
        total += blockRecords;
        blocks += 1;
        off += consumed;
        if (total > count_)
            return TraceIoStatus::Truncated;
    }
    if (total != count_)
        return TraceIoStatus::Truncated;
    blockCount_ = blocks;
    scratch_ = std::make_unique<TraceBlockScratch>();
    return TraceIoStatus::Ok;
}

TraceIoStatus
TraceFileReader::validate(TraceVerify verify)
{
    if (FailpointRegistry::instance().fire("trace_io.open") ==
        FailpointAction::Fail)
        return TraceIoStatus::IoError;
    if (!in_)
        return TraceIoStatus::IoError;
    char magic[sizeof(kMagicPrefix)];
    in_.read(magic, sizeof(magic));
    in_.read(&version_, 1);
    if (!in_)
        return TraceIoStatus::ShortHeader;
    if (std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) != 0)
        return TraceIoStatus::BadMagic;
    if (version_ != kVersionV1 && version_ != kVersionV2 &&
        version_ != kVersionV3)
        return TraceIoStatus::VersionMismatch;
    in_.read(reinterpret_cast<char *>(&count_), 8);
    if (!in_)
        return TraceIoStatus::ShortHeader;

    if (version_ == kVersionV3)
        return mapBlocks(verify);

    // The payload must hold exactly the records the header promises
    // (plus, for v2, the checksum trailer): fewer means a truncated
    // capture (e.g. a writer that died before close()), more means
    // trailing garbage. Both are data loss if ignored, so both are
    // errors, never a silent short replay.
    size_t overhead =
        kHeaderBytes + (version_ == kVersionV2 ? kTrailerBytes : 0);
    in_.seekg(0, std::ios::end);
    std::streampos end = in_.tellg();
    in_.seekg(kHeaderBytes);
    if (!in_)
        return TraceIoStatus::IoError;
    if (static_cast<uint64_t>(end) < overhead ||
        static_cast<uint64_t>(end) - overhead !=
            count_ * kRecordBytes)
        return TraceIoStatus::Truncated;

    if (version_ == kVersionV2 && verify == TraceVerify::Full) {
        // Stream the payload once to verify the trailer before any
        // record is handed out: a flipped bit must be a structured
        // open failure, never a silently mis-measured replay.
        uint64_t sum = kFnv1a64Seed;
        uint64_t remaining = count_ * kRecordBytes;
        char chunk[1 << 16];
        while (remaining > 0) {
            size_t step = remaining < sizeof(chunk)
                              ? static_cast<size_t>(remaining)
                              : sizeof(chunk);
            in_.read(chunk, static_cast<std::streamsize>(step));
            if (!in_)
                return TraceIoStatus::IoError;
            sum = fnv1a64(chunk, step, sum);
            remaining -= step;
        }
        uint64_t stored = 0;
        in_.read(reinterpret_cast<char *>(&stored), kTrailerBytes);
        if (!in_)
            return TraceIoStatus::IoError;
        if (stored != sum)
            return TraceIoStatus::ChecksumMismatch;
        in_.clear();
        in_.seekg(kHeaderBytes);
        if (!in_)
            return TraceIoStatus::IoError;
    }
    return TraceIoStatus::Ok;
}

TraceFileReader::TraceFileReader(const std::string &path)
    : TraceFileReader(path, Unchecked{})
{
    TraceIoStatus st = validate(TraceVerify::Full);
    switch (st) {
      case TraceIoStatus::Ok:
        return;
      case TraceIoStatus::IoError:
        vpprof_fatal("cannot open trace file (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::ShortHeader:
        vpprof_fatal("truncated trace header (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::BadMagic:
        vpprof_fatal("not a vpprof trace file (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::VersionMismatch:
        vpprof_fatal("unsupported trace file version (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::Truncated:
        vpprof_fatal("truncated trace file (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::TruncatedFile:
        vpprof_fatal("torn trace file tail (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::ChecksumMismatch:
        vpprof_fatal("trace file checksum mismatch (",
                     traceIoStatusName(st), "): ", path);
      case TraceIoStatus::PcOutOfRange:  // needs a tryOpen pc limit
      case TraceIoStatus::WriteFailed:
      case TraceIoStatus::NoSpace:
        break;  // statuses a strict validate() never returns
    }
    vpprof_panic("unexpected trace validation status");
}

std::unique_ptr<TraceFileReader>
TraceFileReader::tryOpen(const std::string &path, TraceIoStatus *status,
                         TraceVerify verify, uint64_t pcLimit)
{
    std::unique_ptr<TraceFileReader> reader(
        new TraceFileReader(path, Unchecked{}));
    reader->strict_ = false;
    reader->pcLimit_ = pcLimit;
    TraceIoStatus st = reader->validate(verify);
    if (status)
        *status = st;
    if (st != TraceIoStatus::Ok)
        return nullptr;
    return reader;
}

void
TraceFileReader::fail(TraceIoStatus status)
{
    status_ = status;
    if (strict_)
        vpprof_fatal("trace replay failed (",
                     traceIoStatusName(status), ") after ", read_,
                     " of ", count_, " records: ", path_);
}

bool
TraceFileReader::decodeNextBlock()
{
    size_t consumed = 0;
    TraceBlockStatus st =
        decodeTraceBlock(payload_ + blockOff_, payloadSize_ - blockOff_,
                         *scratch_, view_, &consumed, false);
    if (st != TraceBlockStatus::Ok) {
        // Framing was validated at open, so reaching here means the
        // bytes changed underneath us (or HeaderOnly skipped a
        // damaged block) — an integrity failure either way.
        fail(st == TraceBlockStatus::Truncated
                 ? TraceIoStatus::TruncatedFile
                 : TraceIoStatus::ChecksumMismatch);
        return false;
    }
    blockOff_ += consumed;
    ++blocksDecoded_;
    viewIdx_ = 0;
    return true;
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (status_ != TraceIoStatus::Ok || read_ >= count_)
        return false;

    switch (FailpointRegistry::instance().fire("trace_io.read")) {
      case FailpointAction::Short:
        fail(TraceIoStatus::Truncated);
        return false;
      case FailpointAction::Fail:
        fail(TraceIoStatus::IoError);
        return false;
      default:
        break;
    }

    if (version_ == kVersionV3) {
        if (viewIdx_ >= view_.count && !decodeNextBlock())
            return false;
        rec = view_.record(viewIdx_);
        ++viewIdx_;
        ++read_;
        return true;
    }

    char buf[kRecordBytes];
    in_.read(buf, sizeof(buf));
    if (!in_) {
        // validate() checked the size at open, so this only happens
        // when the file shrank underneath us mid-read.
        fail(TraceIoStatus::Truncated);
        return false;
    }
    decode(buf, rec);
    if (pcLimit_ != 0 && rec.pc >= pcLimit_) {
        fail(TraceIoStatus::PcOutOfRange);
        return false;
    }
    ++read_;
    return true;
}

bool
TraceFileReader::skip(uint64_t n)
{
    if (status_ != TraceIoStatus::Ok)
        return false;
    if (n > count_ - read_)
        n = count_ - read_;

    if (version_ == kVersionV3) {
        // Drain the decoded block first, then hop whole blocks by
        // their framing (no decode), then decode into the target.
        uint64_t inView = view_.count - viewIdx_;
        uint64_t take = std::min(n, inView);
        viewIdx_ += static_cast<uint32_t>(take);
        read_ += take;
        n -= take;
        while (n > 0) {
            size_t consumed = 0;
            uint32_t blockRecords = 0;
            if (probeTraceBlock(payload_ + blockOff_,
                                payloadSize_ - blockOff_, &consumed,
                                &blockRecords,
                                false) != TraceBlockStatus::Ok) {
                fail(TraceIoStatus::IoError);
                return false;
            }
            if (blockRecords <= n) {
                blockOff_ += consumed;
                read_ += blockRecords;
                n -= blockRecords;
            } else {
                if (!decodeNextBlock())
                    return false;
                viewIdx_ = static_cast<uint32_t>(n);
                read_ += n;
                n = 0;
            }
        }
        return true;
    }

    in_.seekg(static_cast<std::streamoff>(n * kRecordBytes),
              std::ios::cur);
    if (!in_) {
        fail(TraceIoStatus::IoError);
        return false;
    }
    read_ += n;
    return true;
}

uint64_t
TraceFileReader::replay(TraceSink *sink)
{
    uint64_t n = 0;
    TraceRecord rec;
    while (next(rec)) {
        sink->record(rec);
        ++n;
    }
    return n;
}

uint64_t
TraceFileReader::replayBlocks(TraceBlockSink *sink)
{
    if (version_ != kVersionV3)
        vpprof_panic("replayBlocks on a version-", version_,
                     " trace file: ", path_);
    uint64_t delivered = 0;
    while (status_ == TraceIoStatus::Ok && read_ < count_) {
        switch (FailpointRegistry::instance().fire("trace_io.read")) {
          case FailpointAction::Short:
            fail(TraceIoStatus::Truncated);
            return delivered;
          case FailpointAction::Fail:
            fail(TraceIoStatus::IoError);
            return delivered;
          default:
            break;
        }
        if (viewIdx_ >= view_.count && !decodeNextBlock())
            break;
        // Hand over whatever of the current block next()/skip()
        // haven't consumed.
        TraceBlockView slice = view_;
        uint32_t o = viewIdx_;
        slice.count -= o;
        slice.seq += o;
        slice.pc += o;
        slice.op += o;
        slice.directive += o;
        slice.writesReg += o;
        slice.dest += o;
        slice.value += o;
        slice.numSrcs += o;
        slice.src0 += o;
        slice.src1 += o;
        slice.isMem += o;
        slice.memAddr += o;
        slice.firstSeq = slice.seq[0];
        sink->consumeBlock(slice);
        viewIdx_ = view_.count;
        read_ += slice.count;
        delivered += slice.count;
    }
    return delivered;
}

bool
TraceFileReader::readColumnar(ColumnarTrace &out) const
{
    if (version_ != kVersionV3)
        return false;
    out.bytes.assign(payload_, payload_ + payloadSize_);
    out.records = count_;
    out.blocks = blockCount_;
    return true;
}

} // namespace vpprof
