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
 *  - TextTraceSource   — cursor over the emmctrace text format,
 *    pulling from the same TextTraceReader as Trace::tryLoad
 *    (trace/parse.hh), so both accept and reject the same input.
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

#include "trace/parse.hh"
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
 * Streaming cursor over the emmctrace text format. Records come from
 * a TextTraceReader (the reader Trace::tryLoad drains), so both paths
 * report the same TraceLoadError for the same input. The first record
 * is read eagerly on open, so name() is valid before the first
 * next(). On top of the reader this source only checks that arrivals
 * are sorted: unlike tryLoad it cannot re-sort what it has not read.
 */
class TextTraceSource : public TraceSource
{
  public:
    /** Open @p path; failure is reported via error(), not thrown. */
    explicit TextTraceSource(std::string path);

    // reader_ points at is_, so the source stays where it was built.
    TextTraceSource(const TextTraceSource &) = delete;
    TextTraceSource &operator=(const TextTraceSource &) = delete;

    const std::string &name() const override { return reader_.name(); }
    std::size_t next(TraceRecord *out, std::size_t max) override;
    void reset() override;
    const TraceLoadError &error() const override { return err_; }

  private:
    /** Read up to (and buffer) the first record. */
    void prime();

    /** Produce one record; false on EOF or error (err_ says which). */
    bool parseOne(TraceRecord &r);

    std::string path_;
    std::ifstream is_;
    TextTraceReader reader_{is_};
    bool havePending_ = false; ///< prime() buffered one record
    TraceRecord pending_{};
    sim::Time lastArrival_ = -1;
    TraceLoadError err_;
};

} // namespace emmcsim::trace

#endif // EMMCSIM_TRACE_SOURCE_HH
