/**
 * @file
 * The one reader of the emmctrace text format.
 *
 * Trace::tryLoad (whole-file, in-memory) and TextTraceSource
 * (streaming cursor) must accept and reject exactly the same input,
 * so both pull records from one TextTraceReader: it owns comments,
 * the "# name:" / "# records:" header lines, CRLF line ends, the
 * record-count cross-check and I/O-error reporting. tryLoad drains
 * it and sorts; TextTraceSource adds only its sorted-arrival check.
 * The per-record helpers below report failure as a reason string
 * (empty = success); checkRecord also guards emmctrace-bin blocks.
 *
 * Every text line, here and in the ingest formats, is cut by
 * splitFields and its numbers read by core::parseInt, so no line
 * allocates and no field is read leniently.
 */

#ifndef EMMCSIM_TRACE_PARSE_HH
#define EMMCSIM_TRACE_PARSE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "core/cli_util.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace emmcsim::trace {

/**
 * Strip one trailing '\r' in place. std::getline splits on '\n' only,
 * so a CRLF file otherwise leaks the '\r' into the last token of every
 * line — most visibly the "# name:" value, which then corrupts report
 * labels.
 */
inline void
stripCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

/**
 * Cut @p line into fields: on runs of whitespace when @p sep is 0,
 * else on every @p sep with each field trimmed of whitespace. The
 * first out.size() fields are written to @p out as views into @p line.
 *
 * @return the number of fields, which may exceed out.size().
 */
inline std::size_t
splitFields(std::string_view line, std::span<std::string_view> out,
            char sep = '\0')
{
    constexpr std::string_view kBlank = " \t\n\v\f\r";
    std::size_t n = 0;
    for (std::size_t pos = 0; pos <= line.size(); ++n) {
        if (sep == '\0' &&
            (pos = line.find_first_not_of(kBlank, pos)) == line.npos)
            break;
        const std::size_t end =
            std::min(sep == '\0' ? line.find_first_of(kBlank, pos)
                                 : line.find(sep, pos),
                     line.size());
        std::string_view f = line.substr(pos, end - pos);
        f.remove_prefix(std::min(f.find_first_not_of(kBlank), f.size()));
        f.remove_suffix(f.size() - (f.find_last_not_of(kBlank) + 1));
        if (n < out.size())
            out[n] = f;
        pos = end + 1;
    }
    return n;
}

/**
 * Enforce the per-record subset of Trace::validate() invariants:
 * positive 4KB-aligned size, unit-aligned LBA, ordered replay
 * timestamps. (Arrival ordering is a cross-record property the caller
 * owns: tryLoad restores it by sorting, a streaming source requires
 * the file to be pre-sorted.)
 *
 * @return empty string when valid, else the reason.
 */
inline std::string
checkRecord(const TraceRecord &r)
{
    if (r.arrival < 0)
        return "negative arrival time";
    if (r.sizeBytes.value() == 0)
        return "zero size";
    if (!units::isUnitAligned(r.sizeBytes))
        return "size not 4KB-aligned";
    if (!units::isUnitAligned(r.lbaSector))
        return "lba not 4KB-aligned";
    if (r.replayed() &&
        (r.serviceStart < r.arrival || r.finish < r.serviceStart))
        return "timestamps out of order";
    return "";
}

/**
 * Parse one non-comment, non-empty record line into @p r and check the
 * per-record invariants. The line must already be '\r'-stripped.
 *
 * @return empty string on success, else the reason.
 */
inline std::string
parseRecordLine(std::string_view line, TraceRecord &r)
{
    r = TraceRecord{};
    std::array<std::string_view, 7> f;
    const std::size_t n = splitFields(line, f);
    std::uint64_t lba = 0;
    std::uint64_t size = 0;
    if (n < 4 || !core::parseInt(f[0], r.arrival) ||
        !core::parseU64(f[1], lba) || !core::parseU64(f[2], size)) {
        return "malformed record (expected \"<arrival_ns> "
               "<lba_sector> <size_bytes> <R|W>\"): " +
               std::string(line);
    }
    r.lbaSector = units::Lba{lba};
    r.sizeBytes = units::Bytes{size};
    if (f[3] == "W" || f[3] == "w") {
        r.op = OpType::Write;
    } else if (f[3] == "R" || f[3] == "r") {
        r.op = OpType::Read;
    } else {
        return "bad op '" + std::string(f[3]) + "' (expected R or W)";
    }
    if (n > 4) {
        if (!core::parseInt(f[4], r.serviceStart))
            return "trailing garbage after record: " + std::string(f[4]);
        if (n < 6 || !core::parseInt(f[5], r.finish))
            return "service timestamp without a finish timestamp";
        if (n > 6)
            return "trailing garbage after record: " + std::string(f[6]);
    }
    return checkRecord(r);
}

/**
 * Pull parser over an emmctrace text stream: one record per next().
 * Blank lines and comments are skipped; "# name:" and "# records:"
 * lines are honoured wherever they appear. At end of input the
 * declared record count is cross-checked and a stream error (badbit)
 * is reported rather than passed off as a shorter trace.
 */
class TextTraceReader
{
  public:
    /** Read from @p is (borrowed; must outlive the reader). */
    explicit TextTraceReader(std::istream &is) : is_(&is) {}

    /**
     * Parse the next record into @p r.
     *
     * @return false at end of input or on error; error() says which.
     */
    bool
    next(TraceRecord &r)
    {
        if (done_)
            return false;
        while (std::getline(*is_, line_)) {
            ++lineno_;
            stripCr(line_);
            if (line_.empty())
                continue;
            if (line_[0] == '#') {
                header();
                continue;
            }
            std::string reason = parseRecordLine(line_, r);
            if (!reason.empty())
                return fail(lineno_, std::move(reason));
            ++records_;
            return true;
        }
        // getline stops on either EOF or an I/O error; only the former
        // is a complete trace.
        if (is_->bad())
            return fail(lineno_, "I/O error while reading trace");
        done_ = true;
        if (haveCount_ && declared_ != records_) {
            return fail(0, "record count mismatch: header declares " +
                               std::to_string(declared_) +
                               " records, file has " +
                               std::to_string(records_) +
                               " (truncated or corrupt trace?)");
        }
        return false;
    }

    /** Workload label from the latest "# name:" line. */
    const std::string &name() const { return name_; }

    /** 1-based number of the last line read. */
    std::size_t line() const { return lineno_; }

    /** Failure details; ok() at a clean end of input. */
    const TraceLoadError &error() const { return err_; }

  private:
    /** Record the "# name:" / "# records:" values; other comments are
     *  ignored. */
    void
    header()
    {
        constexpr std::string_view name_key = "# name: ";
        constexpr std::string_view count_key = "# records: ";
        const std::string_view line = line_;
        std::array<std::string_view, 1> f;
        if (line.starts_with(name_key)) {
            name_ = line.substr(name_key.size());
        } else if (line.starts_with(count_key) &&
                   splitFields(line.substr(count_key.size()), f) == 1 &&
                   core::parseU64(f[0], declared_)) {
            haveCount_ = true;
        }
    }

    bool
    fail(std::size_t line, std::string reason)
    {
        done_ = true;
        err_.line = line;
        err_.reason = std::move(reason);
        return false;
    }

    std::istream *is_;
    std::string line_; ///< reused line buffer
    std::size_t lineno_ = 0;
    std::string name_;
    bool haveCount_ = false;
    std::uint64_t declared_ = 0;
    std::uint64_t records_ = 0;
    bool done_ = false;
    TraceLoadError err_;
};

} // namespace emmcsim::trace

#endif // EMMCSIM_TRACE_PARSE_HH
