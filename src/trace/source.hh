/**
 * @file
 * TraceSource: a streaming cursor over trace records.
 *
 * A multi-GB capture must replay without materializing a
 * std::vector<TraceRecord> (DESIGN.md §15). TraceSource abstracts
 * "where the records come from" behind a chunked pull interface:
 * the replayer asks for the next batch, the source fills a
 * caller-owned buffer, and nothing holds the whole trace. Three
 * implementations cover the repertoire:
 *
 *  - MemoryTraceSource — non-owning cursor over an in-memory Trace
 *    (what replay() and resume() feed the replay loop).
 *  - TextTraceSource   — incremental parser over the emmctrace text
 *    format (this file).
 *  - BinTraceSource    — block decoder over emmctrace-bin v1
 *    (binfmt.hh).
 *
 * Streaming sources require the file to be arrival-sorted (they
 * cannot sort what they have not read); Trace::save and the ingest
 * pipeline always write sorted traces. Errors are reported through
 * the same TraceLoadError the in-memory loader uses: next() returns
 * 0 and error() explains whether that was EOF or a failure.
 */

#ifndef EMMCSIM_TRACE_SOURCE_HH
#define EMMCSIM_TRACE_SOURCE_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "trace/trace.hh"

namespace emmcsim::trace {

/** Pull-based record stream; see file comment. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Workload label (from the trace header / Trace::name). */
    virtual const std::string &name() const = 0;

    /**
     * Fill out[0..max) with the next records in arrival order.
     *
     * @return number of records produced; 0 means end of stream *or*
     *         failure — callers distinguish via failed().
     */
    virtual std::size_t next(TraceRecord *out, std::size_t max) = 0;

    /** Rewind to the first record (clears any error). */
    virtual void reset() = 0;

    /** Failure details; ok() while the stream is healthy. */
    virtual const TraceLoadError &error() const = 0;

    bool failed() const { return !error().ok(); }
};

/**
 * Cursor over an in-memory Trace (non-owning; trace must outlive),
 * starting at record @p first (a resumed replay skips what the
 * snapshot already covered); reset() rewinds to @p first.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    explicit MemoryTraceSource(const Trace &t, std::size_t first = 0)
        : trace_(&t), first_(first), pos_(first)
    {
    }

    const std::string &name() const override { return trace_->name(); }

    std::size_t
    next(TraceRecord *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && pos_ < trace_->size())
            out[n++] = (*trace_)[pos_++];
        return n;
    }

    void reset() override { pos_ = first_; }

    const TraceLoadError &error() const override { return err_; }

  private:
    const Trace *trace_;
    std::size_t first_;
    std::size_t pos_;
    TraceLoadError err_; ///< always ok; memory cannot fail
};

/**
 * Incremental parser over the emmctrace text format. The header
 * comments (name, declared record count) are consumed eagerly on
 * open, so name() is valid before the first next(); records are then
 * parsed one line per record on demand. Requires sorted arrivals and
 * cross-checks the "# records:" header at end of stream.
 */
class TextTraceSource : public TraceSource
{
  public:
    /** Open @p path; failure is reported via error(), not thrown. */
    explicit TextTraceSource(std::string path);

    const std::string &name() const override { return name_; }
    std::size_t next(TraceRecord *out, std::size_t max) override;
    void reset() override;
    const TraceLoadError &error() const override { return err_; }

    /** Records produced so far (cross-checked against the header). */
    std::uint64_t produced() const { return produced_; }

  private:
    /** Read lines up to (and buffering) the first record. */
    void prime();

    /** Parse one record; false on EOF or error (err_ says which). */
    bool parseOne(TraceRecord &r);

    std::string path_;
    std::ifstream is_;
    std::string name_;
    std::string line_; ///< reused line buffer
    std::size_t lineno_ = 0;
    bool havePending_ = false; ///< prime() buffered one record
    TraceRecord pending_{};
    bool haveCount_ = false;
    std::uint64_t declared_ = 0;
    std::uint64_t produced_ = 0;
    sim::Time lastArrival_ = -1;
    bool eof_ = false;
    TraceLoadError err_;
};

} // namespace emmcsim::trace

#endif // EMMCSIM_TRACE_SOURCE_HH
