/**
 * @file
 * Binary trace files: persist a dynamic trace to disk and replay it
 * later, so expensive workload runs can be captured once and analyzed
 * many times — the role SHADE's trace files played for the paper.
 *
 * Version ladder:
 *  - v3 (default): a 16-byte header ("VPTRACE" + version byte, record
 *    count) followed by self-checksummed columnar blocks
 *    (trace_block.hh) — delta/varint/dictionary compressed, read via
 *    mmap, decoded block-at-a-time into SoA scratch columns.
 *  - v2: the same header, fixed-width 39-byte little-endian records,
 *    and an 8-byte FNV-1a checksum trailer over the record payload.
 *  - v1: v2 without the trailer.
 * Readers auto-detect the version, so v1/v2 caches stay readable by a
 * v3 session; writers default to v3 but can be pinned with the
 * VPPROF_TRACE_FORMAT environment knob (or an explicit TraceFormat).
 *
 * Durability: the writer streams into `<path>.tmp.<pid>` and commits
 * with flush + atomic rename in close(), so a crash at any point
 * leaves either the complete old file or the complete new file at
 * `path` — never a torn one. Readers validate the magic, the version,
 * the payload framing, and (Full verify) every checksum, reporting
 * structured TraceIoStatus errors instead of silently truncating. A
 * v3 file whose tail block was torn off reports the distinct
 * TruncatedFile status so quarantine logs name the actual failure.
 *
 * Fault injection: the write/commit/open/read sites consult the
 * failpoint registry ("trace_io.write", "trace_io.commit",
 * "trace_io.open", "trace_io.read"), so crash-consistency tests can
 * deterministically simulate disk-full, torn writes and short reads.
 */

#ifndef VPPROF_VM_TRACE_IO_HH
#define VPPROF_VM_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "vm/trace.hh"
#include "vm/trace_block.hh"

namespace vpprof
{

/** Structured outcome of trace-file validation, reads and writes. */
enum class TraceIoStatus
{
    Ok,               ///< file healthy / operation succeeded
    IoError,          ///< file cannot be opened or read at all
    ShortHeader,      ///< fewer bytes than the fixed header
    BadMagic,         ///< not a vpprof trace file at all
    VersionMismatch,  ///< vpprof trace, but an unsupported version
    Truncated,        ///< payload size disagrees with the header count
    TruncatedFile,    ///< v3 tail block torn off / file shorter than mapped
    ChecksumMismatch, ///< stored checksum does not match the payload
    PcOutOfRange,     ///< a record's pc lies outside the program
    WriteFailed,      ///< a write or the commit rename failed
    NoSpace,          ///< the device is full (ENOSPC)
};

/** Human-readable name of a TraceIoStatus (for messages and tests). */
const char *traceIoStatusName(TraceIoStatus status);

/** On-disk format a writer produces (readers auto-detect). */
enum class TraceFormat
{
    V2, ///< fixed-width AoS records + checksum trailer
    V3, ///< columnar delta-compressed blocks
};

/**
 * The format writers use when none is given explicitly: v3, unless
 * VPPROF_TRACE_FORMAT=2 pins the previous format (the knob CI's
 * cache-migration smoke uses to capture a v2 cache on purpose).
 * Re-read from the environment on every call so tests can flip it.
 */
TraceFormat defaultTraceFormat();

/**
 * How much of a trace file tryOpen() validates. Full verifies the
 * payload checksums (the v2 trailer / every v3 block) — the integrity
 * boundary, paid once per file per process. HeaderOnly checks the
 * magic, the version and the payload framing but skips the checksum
 * pass; it exists so repeated same-process replays of a file that
 * already passed Full verification (tracked by the TraceRepository)
 * avoid re-hashing tens of megabytes per replay. Use Full whenever
 * the file's history is unknown.
 */
enum class TraceVerify
{
    Full,
    HeaderOnly,
};

/**
 * A trace sink that streams records into a binary trace file through
 * a write-to-temp + flush + atomic-rename commit. Failures (including
 * a full disk) are latched into status() and surfaced by close();
 * nothing in the writer is fatal, so callers choose between loud
 * errors (the CLI) and graceful degradation (the trace cache).
 *
 * v3 writes buffer records into a columnar block encoder and write
 * one encoded block at a time; the per-record failpoint and the
 * atomic commit protocol are identical across formats.
 */
class TraceFileWriter : public TraceSink
{
  public:
    /** Open the temp file for `path` in defaultTraceFormat(). */
    explicit TraceFileWriter(const std::string &path);

    /**
     * Open the temp file for `path` in an explicit format. On failure
     * the writer is inert: record() drops and close() reports the
     * latched status.
     */
    TraceFileWriter(const std::string &path, TraceFormat format);

    /**
     * Closes if needed; a failure on this path is logged through
     * vpprof_warn_limited (a destructor cannot return status — call
     * close() when the outcome matters).
     */
    ~TraceFileWriter() override;

    void record(const TraceRecord &rec) override;

    /**
     * Commit: flush the tail block (v3) or append the checksum
     * trailer (v2), fix up the header count, flush, verify the
     * stream, and atomically rename the temp file over `path`.
     * Returns Ok on a durable commit; on any failure the temp file is
     * removed, `path` is untouched, and the first error (WriteFailed /
     * NoSpace / IoError) is returned. Idempotent.
     */
    TraceIoStatus close();

    /** First error latched by the constructor/record()/close(). */
    TraceIoStatus status() const { return status_; }

    uint64_t recordsWritten() const { return count_; }

  private:
    void flushBlock();

    std::string path_;
    std::string tmpPath_;
    std::ofstream out_;
    TraceFormat format_;
    uint64_t count_ = 0;
    uint64_t checksum_;
    TraceBlockEncoder encoder_;        // v3 block staging
    std::vector<uint8_t> blockBuf_;    // v3 encoded-block scratch
    uint64_t corruptPending_ = 0;      // injected flips owed to this block
    bool closed_ = false;
    TraceIoStatus status_ = TraceIoStatus::Ok;
};

/**
 * Persist an already-encoded columnar trace as a v3 file through the
 * same temp + flush + atomic-rename commit protocol. This is the
 * TraceRepository's bulk path: capture encodes once, and persisting
 * (cache write, spill) is a framed buffer write instead of a second
 * per-record encode. The "trace_io.write" failpoint fires once per
 * block here (a trace is hundreds of blocks, so countdown specs still
 * land mid-file), "trace_io.commit" once at the rename.
 */
TraceIoStatus writeColumnarTraceFile(const std::string &path,
                                     const ColumnarTrace &trace);

/**
 * Reads a binary trace file (any version). Records can be streamed
 * into any TraceSink (replay) or pulled one at a time; v3 files can
 * additionally be streamed block-at-a-time into a TraceBlockSink or
 * adopted wholesale as a ColumnarTrace.
 *
 * v3 files are mmap-ed (with a buffered-read fallback) and decoded
 * lazily, one block per 4096 records; v1/v2 files stream through the
 * original ifstream path. The repository's lock + atomic-rename
 * discipline means a mapped file is never modified in place — a
 * concurrent re-commit replaces the directory entry while the mapped
 * inode lives on.
 *
 * Two opening modes:
 *  - The constructor is strict: any malformed file is fatal (a user
 *    handed us a broken file; the CLI wants the loud diagnostic).
 *  - tryOpen() is recoverable: it validates the header, the version,
 *    the payload framing and (Full) the checksums, and returns
 *    nullptr plus a TraceIoStatus so callers (e.g. a trace cache
 *    probing for reusable files) can quarantine and regenerate.
 */
class TraceFileReader
{
  public:
    /** Open and validate; fatal on a malformed file. */
    explicit TraceFileReader(const std::string &path);

    ~TraceFileReader();

    /**
     * Open and validate a trace file without ever exiting.
     * @param[out] status Why the open failed (Ok on success).
     * @param verify How deep to validate (default: full checksum).
     * @param pcLimit When non-zero, every record's pc must be below it
     *        (the program size), else PcOutOfRange: v3 pc columns are
     *        checked by the Full block walk here, v1/v2 records as
     *        next() hands them out.
     * @return The reader, or nullptr when the file is unusable.
     */
    static std::unique_ptr<TraceFileReader>
    tryOpen(const std::string &path, TraceIoStatus *status = nullptr,
            TraceVerify verify = TraceVerify::Full, uint64_t pcLimit = 0);

    /** Records the header promises. */
    uint64_t recordCount() const { return count_; }

    /** Records handed out (or skipped) so far. */
    uint64_t recordsRead() const { return read_; }

    /** '1', '2' or '3'. */
    char version() const { return version_; }

    /** Columnar blocks in a v3 file (0 for v1/v2). */
    uint64_t blockCount() const { return blockCount_; }

    /** Blocks this reader has decoded so far. */
    uint64_t blocksDecoded() const { return blocksDecoded_; }

    /** Bytes of file this reader mapped (or buffered), v3 only. */
    uint64_t mappedBytes() const { return mappedBytes_; }

    /**
     * Read the next record; false at end of trace. On an unexpected
     * short read the reader is fatal in strict mode and otherwise
     * stops, recording the error in status().
     */
    bool next(TraceRecord &rec);

    /**
     * Seek forward past `n` records without decoding them (resuming a
     * replay that already delivered a prefix); v3 skips whole blocks
     * by their framing. False on seek failure.
     */
    bool skip(uint64_t n);

    /** Stream every remaining record into a sink; returns how many. */
    uint64_t replay(TraceSink *sink);

    /**
     * v3 only: stream every remaining block into a block sink,
     * decoding each block once. The "trace_io.read" failpoint fires
     * once per block on this path (the record-granular ladder lives
     * in next()). Returns records delivered.
     */
    uint64_t replayBlocks(TraceBlockSink *sink);

    /**
     * v3 only: hand the file's encoded payload over as a resident
     * ColumnarTrace (one buffer copy, no decode). False for v1/v2 —
     * those transcode through next() instead.
     */
    bool readColumnar(ColumnarTrace &out) const;

    /** Error state of the last operation (Ok while healthy). */
    TraceIoStatus status() const { return status_; }

  private:
    struct Unchecked
    {
    };

    TraceFileReader(const std::string &path, Unchecked);

    /** Validate header/version/framing (+ checksums when Full). */
    TraceIoStatus validate(TraceVerify verify);

    /** Map (or buffer) a v3 file and walk its block framing. */
    TraceIoStatus mapBlocks(TraceVerify verify);

    /** Decode the block at the cursor into the scratch columns. */
    bool decodeNextBlock();

    /** Latch an error; fatal (with status name + path) when strict. */
    void fail(TraceIoStatus status);

    std::string path_;
    std::ifstream in_;
    uint64_t count_ = 0;
    uint64_t read_ = 0;
    char version_;
    bool strict_ = true;
    uint64_t pcLimit_ = 0;             // 0: pcs unchecked
    TraceIoStatus status_ = TraceIoStatus::Ok;

    // v3 state: the mapped payload and the lazy block cursor.
    void *mapBase_ = nullptr;          // munmap target (nullptr: none)
    size_t mapSize_ = 0;
    std::vector<uint8_t> ownedBytes_;  // fallback when mmap fails
    const uint8_t *payload_ = nullptr; // blocks (file minus header)
    size_t payloadSize_ = 0;
    size_t blockOff_ = 0;              // next undecoded block
    uint64_t blockCount_ = 0;
    uint64_t blocksDecoded_ = 0;
    uint64_t mappedBytes_ = 0;
    std::unique_ptr<TraceBlockScratch> scratch_;
    TraceBlockView view_;
    uint32_t viewIdx_ = 0;             // consumed prefix of view_
};

} // namespace vpprof

#endif // VPPROF_VM_TRACE_IO_HH
