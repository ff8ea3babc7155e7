/**
 * @file
 * emmctrace-bin v1: the compact binary columnar trace format.
 *
 * Layout (all integers little-endian; see DESIGN.md §15):
 *
 * @code
 * offset  size  field
 *      0    16  magic "emmctrace-bin v1"
 *     16     4  version (1)
 *     20     4  flags (bit 0: records carry replay timestamps)
 *     24     8  record count        (patched by finish())
 *     32     8  FNV-1a checksum of every block byte (patched)
 *     40     4  records per full block
 *     44     4  name length
 *     48     n  name bytes
 *   then      blocks until EOF:
 *              u32 record count in block, u32 body length, body
 * @endcode
 *
 * A block body is column-per-field, varint-coded (core/binio):
 * arrival deltas (vu64, chained across blocks — arrivals are sorted
 * so deltas are small), LBA sector deltas (vi64 zigzag, chained),
 * sizes in 4KB units (vu64), an op bitmap (bit set = write), and,
 * when flag bit 0 is set, per-record (serviceStart - arrival) and
 * (finish - serviceStart) vu64 columns.
 *
 * The fixed-offset header makes record count, checksum and name
 * readable without touching a block. The checksum and count are
 * patched into the header by finish(), so the writer needs a seekable
 * stream; the reader verifies both only once the last block is
 * consumed — truncation or bit rot fails the stream loudly instead of
 * silently shrinking a workload.
 */

#ifndef EMMCSIM_TRACE_BINFMT_HH
#define EMMCSIM_TRACE_BINFMT_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/binio.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace emmcsim::trace {

/** Magic bytes; exactly 16 chars, no terminator on disk. */
inline constexpr char kBinTraceMagic[] = "emmctrace-bin v1";
inline constexpr std::size_t kBinTraceMagicLen = 16;

/** Fixed header size before the name bytes. */
inline constexpr std::size_t kBinTraceHeaderBytes = 48;

/** Records per full block (the streaming chunk granularity). */
inline constexpr std::uint32_t kBinTraceBlockRecords = 4096;

/** Flag bit 0: records carry serviceStart/finish columns. */
inline constexpr std::uint32_t kBinTraceFlagReplayTimes = 1u << 0;

/** Parsed header of an emmctrace-bin v1 file (trace-info). */
struct BinTraceInfo
{
    std::string name;
    std::uint64_t records = 0;
    std::uint64_t checksum = 0;
    std::uint32_t blockRecords = 0;
    bool hasReplayTimes = false;
};

/**
 * Streaming writer. add() records in arrival order; finish() flushes
 * the tail block and patches count + checksum into the header.
 */
class BinTraceWriter
{
  public:
    /**
     * @param os   Seekable output stream positioned at offset 0.
     * @param name Workload label stored in the header.
     * @param withReplayTimes Emit serviceStart/finish columns.
     */
    BinTraceWriter(std::ostream &os, const std::string &name,
                   bool withReplayTimes);

    /** Append one record; arrivals must be non-decreasing. */
    void add(const TraceRecord &r);

    /** Flush and patch the header. @return false on stream failure. */
    bool finish();

    std::uint64_t records() const { return records_; }

  private:
    void flushBlock();

    std::ostream &os_;
    bool withReplayTimes_;
    bool finished_ = false;
    std::uint64_t records_ = 0;
    sim::Time prevArrival_ = 0;
    std::int64_t prevLbaSector_ = 0;
    std::vector<TraceRecord> block_;
    core::Fnv1a checksum_;
};

/**
 * One-call convenience: write @p t to @p path as emmctrace-bin v1.
 * Replay-timestamp columns are emitted iff every record carries them.
 * sim::fatal on I/O failure (mirrors Trace::saveFile).
 */
void saveBinTraceFile(const Trace &t, const std::string &path);

/**
 * TraceSource over an emmctrace-bin v1 file. Reads one block at a
 * time through an ifstream into a reused buffer and decodes it into a
 * reused record buffer, so memory holds one block whatever the trace
 * length; the checksum and the header record count are verified when
 * the final block is consumed.
 */
class BinTraceSource : public TraceSource
{
  public:
    /** Open @p path; failure is reported via error(), not thrown. */
    explicit BinTraceSource(std::string path);

    const std::string &name() const override { return name_; }
    std::size_t next(TraceRecord *out, std::size_t max) override;
    void reset() override;
    const TraceLoadError &error() const override { return err_; }

    /** Header info (valid once the constructor succeeded). */
    const BinTraceInfo &info() const { return info_; }

    /** Cheap probe: does @p path start with the v1 magic? */
    static bool isBinTraceFile(const std::string &path);

    /** Read just the header of @p path. @return false + err on failure. */
    static bool readInfo(const std::string &path, BinTraceInfo &out,
                         TraceLoadError &err);

  private:
    /** Parse + validate the fixed header; sets err_ on failure. */
    void openHeader();

    /** Decode the next block into decoded_; false on EOF or error. */
    bool loadBlock();

    /** Decode one block body of @p n records. */
    bool decodeBlockBody(std::string_view body, std::uint32_t n);

    std::string path_;
    std::ifstream is_;
    std::string name_;
    BinTraceInfo info_;
    std::vector<TraceRecord> decoded_; ///< reused per-block buffer
    std::size_t pos_ = 0;              ///< cursor into decoded_
    std::string blockBuf_;             ///< reused raw block bytes
    std::uint64_t produced_ = 0;
    sim::Time prevArrival_ = 0;
    std::int64_t prevLbaSector_ = 0;
    core::Fnv1a checksum_;
    bool eof_ = false;
    TraceLoadError err_;
};

} // namespace emmcsim::trace

#endif // EMMCSIM_TRACE_BINFMT_HH
