#include "trace/trace.hh"

#include <algorithm>
#include <fstream>

#include "sim/logging.hh"
#include "trace/parse.hh"

namespace emmcsim::trace {

void
Trace::push(const TraceRecord &r)
{
    if (!records_.empty() && r.arrival < records_.back().arrival)
        sim::panic("trace records must be pushed in arrival order");
    records_.push_back(r);
}

sim::Time
Trace::duration() const
{
    if (records_.empty())
        return 0;
    sim::Time end = records_.back().arrival;
    for (const auto &r : records_) {
        if (r.finish != sim::kTimeNever)
            end = std::max(end, r.finish);
    }
    return end;
}

units::Bytes
Trace::totalBytes() const
{
    units::Bytes n{0};
    for (const auto &r : records_)
        n += r.sizeBytes;
    return n;
}

units::Bytes
Trace::writtenBytes() const
{
    units::Bytes n{0};
    for (const auto &r : records_)
        if (r.isWrite())
            n += r.sizeBytes;
    return n;
}

std::uint64_t
Trace::writeCount() const
{
    std::uint64_t n = 0;
    for (const auto &r : records_)
        if (r.isWrite())
            ++n;
    return n;
}

units::Bytes
Trace::maxRequestBytes() const
{
    units::Bytes n{0};
    for (const auto &r : records_)
        n = std::max(n, r.sizeBytes);
    return n;
}

std::string
Trace::validate() const
{
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const auto &r = records_[i];
        if (r.arrival < 0)
            return "record " + std::to_string(i) + ": negative arrival";
        if (i > 0 && r.arrival < records_[i - 1].arrival)
            return "record " + std::to_string(i) + ": arrival not sorted";
        if (r.sizeBytes.value() == 0)
            return "record " + std::to_string(i) + ": zero size";
        if (!units::isUnitAligned(r.sizeBytes)) {
            return "record " + std::to_string(i) +
                   ": size not 4KB-aligned";
        }
        if (!units::isUnitAligned(r.lbaSector)) {
            return "record " + std::to_string(i) +
                   ": lba not 4KB-aligned";
        }
        if (r.replayed() &&
            (r.serviceStart < r.arrival || r.finish < r.serviceStart)) {
            return "record " + std::to_string(i) +
                   ": timestamps out of order";
        }
    }
    return "";
}

void
Trace::sortByArrival()
{
    std::stable_sort(records_.begin(), records_.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.arrival < b.arrival;
                     });
}

void
Trace::save(std::ostream &os) const
{
    os << "# emmctrace v1\n";
    os << "# name: " << name_ << "\n";
    os << "# records: " << records_.size() << "\n";
    for (const auto &r : records_) {
        os << r.arrival << ' ' << r.lbaSector << ' ' << r.sizeBytes << ' '
           << (r.isWrite() ? 'W' : 'R');
        if (r.replayed())
            os << ' ' << r.serviceStart << ' ' << r.finish;
        os << '\n';
    }
}

void
Trace::saveFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open trace file for writing: " + path);
    save(os);
    if (!os)
        sim::fatal("error while writing trace file: " + path);
}

std::string
TraceLoadError::message() const
{
    if (reason.empty())
        return "";
    if (line == 0)
        return reason;
    return "line " + std::to_string(line) + ": " + reason;
}

bool
Trace::tryLoad(std::istream &is, Trace &out, TraceLoadError &err)
{
    TextTraceReader reader(is);
    Trace t;
    TraceRecord r;
    while (reader.next(r))
        t.records_.push_back(r);
    err = reader.error();
    if (!err.ok())
        return false;
    t.setName(reader.name());
    t.sortByArrival();
    out = std::move(t);
    return true;
}

bool
Trace::tryLoadFile(const std::string &path, Trace &out,
                   TraceLoadError &err)
{
    std::ifstream is(path);
    if (!is) {
        err.line = 0;
        err.reason = "cannot open trace file: " + path;
        return false;
    }
    return tryLoad(is, out, err);
}

Trace
Trace::load(std::istream &is)
{
    Trace t;
    TraceLoadError err;
    if (!tryLoad(is, t, err))
        sim::fatal("trace load failed: " + err.message());
    return t;
}

Trace
Trace::loadFile(const std::string &path)
{
    Trace t;
    TraceLoadError err;
    if (!tryLoadFile(path, t, err))
        sim::fatal("trace load failed: " + err.message());
    return t;
}

} // namespace emmcsim::trace
