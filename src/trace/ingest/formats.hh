/**
 * @file
 * Per-format line parsers for trace ingestion (internal to
 * src/trace/ingest; the public entry point is ingest.hh).
 *
 * Each parser turns one input line into a RawRecord — the common
 * denominator of every supported trace format: a byte-addressed
 * extent, a direction, a nanosecond timestamp on the source's own
 * epoch, and the volume string the line belongs to. Normalization
 * (alignment, rebase, remapping) happens once, downstream, in
 * ingest.cc; parsers only extract and validate fields.
 */

#ifndef EMMCSIM_TRACE_INGEST_FORMATS_HH
#define EMMCSIM_TRACE_INGEST_FORMATS_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace emmcsim::trace::ingest {

/** One parsed input line, before normalization. */
struct RawRecord
{
    sim::Time timestampNs = 0;    ///< on the source's own epoch
    std::uint64_t offsetBytes = 0;
    std::uint64_t lengthBytes = 0;
    bool write = false;
    std::string volume;           ///< device / volume identifier
};

/** What a line parser decided about its line. */
enum class LineResult
{
    Record, ///< @p out is a parsed record
    Skip,   ///< header / non-data line; ignore silently
    Error,  ///< malformed; @p error explains
};

/**
 * Parse a decimal-seconds timestamp ("123.456789012") into integer
 * nanoseconds without a double round-trip (doubles lose ns precision
 * past ~104 days). Fractional digits beyond 9 are truncated.
 * @return false on malformed input.
 */
bool parseSecondsToNs(std::string_view tok, sim::Time &out);

/**
 * blkparse default text: `maj,min cpu seq ts pid action rwbs sector
 * + count [proc]` with sector/count in 512-byte sectors. Only queue
 * events (action Q) become records — they mark block-layer arrival,
 * the paper's step-1 timestamp; other actions are skipped.
 */
LineResult parseBlktraceLine(const std::string &line, RawRecord &out,
                             std::string &error);

/**
 * bcc biosnoop text: `TIME(s) COMM PID DISK T SECTOR BYTES LAT(ms)`
 * with SECTOR in 512-byte sectors. The column-header line is skipped.
 */
LineResult parseBiosnoopLine(const std::string &line, RawRecord &out,
                             std::string &error);

/**
 * Alibaba block-trace CSV: `device_id,opcode,offset,length,timestamp`
 * with offset/length in bytes, timestamp in microseconds, opcode
 * R or W.
 */
LineResult parseAlibabaLine(const std::string &line, RawRecord &out,
                            std::string &error);

/**
 * Tencent CBS CSV: `timestamp,offset,size,iotype,volume_id` with
 * timestamp in seconds, offset/size in 512-byte sectors, iotype
 * 0 = read / 1 = write.
 */
LineResult parseTencentLine(const std::string &line, RawRecord &out,
                            std::string &error);

} // namespace emmcsim::trace::ingest

#endif // EMMCSIM_TRACE_INGEST_FORMATS_HH
