#include "trace/source.hh"

#include <utility>

namespace emmcsim::trace {

TextTraceSource::TextTraceSource(std::string path)
    : path_(std::move(path)), is_(path_)
{
    if (!is_) {
        err_.line = 0;
        err_.reason = "cannot open trace file: " + path_;
        return;
    }
    prime();
}

void
TextTraceSource::prime()
{
    havePending_ = reader_.next(pending_);
    if (!havePending_)
        err_ = reader_.error();
}

bool
TextTraceSource::parseOne(TraceRecord &r)
{
    if (!err_.ok())
        return false;
    if (havePending_) {
        r = pending_;
        havePending_ = false;
    } else if (!reader_.next(r)) {
        err_ = reader_.error();
        return false;
    }
    if (r.arrival < lastArrival_) {
        err_.line = reader_.line();
        err_.reason = "arrivals not sorted (a streaming source "
                      "requires a pre-sorted trace; re-ingest it)";
        return false;
    }
    lastArrival_ = r.arrival;
    return true;
}

std::size_t
TextTraceSource::next(TraceRecord *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max && parseOne(out[n]))
        ++n;
    return n;
}

void
TextTraceSource::reset()
{
    err_ = TraceLoadError{};
    havePending_ = false;
    lastArrival_ = -1;
    reader_ = TextTraceReader(is_);
    is_.clear();
    is_.seekg(0);
    if (!is_) {
        // Reopen covers streams whose failbit survives seekg (or a
        // file replaced underneath us).
        is_.close();
        is_.open(path_);
        if (!is_) {
            err_.line = 0;
            err_.reason = "cannot reopen trace file: " + path_;
            return;
        }
    }
    prime();
}

} // namespace emmcsim::trace
