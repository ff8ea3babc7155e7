#include "trace/ingest/ingest.hh"

#include <algorithm>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "core/units.hh"
#include "trace/ingest/formats.hh"

namespace emmcsim::trace::ingest {

namespace {

using LineParser = LineResult (*)(const std::string &, RawRecord &,
                                  std::string &);

LineParser
parserFor(Format f)
{
    switch (f) {
    case Format::Blktrace:
        return &parseBlktraceLine;
    case Format::Biosnoop:
        return &parseBiosnoopLine;
    case Format::Alibaba:
        return &parseAlibabaLine;
    case Format::Tencent:
        return &parseTencentLine;
    case Format::EmmcTrace:
        break; // loads through Trace::tryLoadFile, not per-line
    }
    return nullptr;
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base.resize(dot);
    return base;
}

/** Read @p in_path line by line into RawRecords. */
bool
parseLines(LineParser parse, const std::string &in_path,
           std::vector<RawRecord> &raw, IngestStats &stats,
           std::string &error)
{
    std::ifstream is(in_path);
    if (!is) {
        error = "cannot open input file: " + in_path;
        return false;
    }
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        ++stats.linesTotal;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        RawRecord r;
        std::string why;
        switch (parse(line, r, why)) {
        case LineResult::Skip:
            ++stats.linesSkipped;
            break;
        case LineResult::Error:
            error = "line " + std::to_string(lineno) + ": " + why;
            return false;
        case LineResult::Record:
            ++stats.parsed;
            raw.push_back(std::move(r));
            break;
        }
    }
    if (is.bad()) {
        error = "I/O error while reading " + in_path;
        return false;
    }
    return true;
}

/** Load an emmctrace v1 text file into RawRecords (re-normalization
 * pass; replay timestamps are dropped by construction). */
bool
loadEmmcTrace(const std::string &in_path, std::vector<RawRecord> &raw,
              IngestStats &stats, std::string &name,
              std::string &error)
{
    Trace t;
    TraceLoadError err;
    if (!Trace::tryLoadFile(in_path, t, err)) {
        error = err.message();
        return false;
    }
    name = t.name();
    raw.reserve(t.size());
    for (const TraceRecord &rec : t.records()) {
        RawRecord r;
        r.timestampNs = rec.arrival;
        r.offsetBytes = rec.lbaSector.value() * sim::kSectorBytes;
        r.lengthBytes = rec.sizeBytes.value();
        r.write = rec.isWrite();
        raw.push_back(std::move(r));
    }
    stats.linesTotal = t.size();
    stats.parsed = t.size();
    return true;
}

} // namespace

bool
formatFromName(const std::string &name, Format &out)
{
    if (name == "emmctrace") {
        out = Format::EmmcTrace;
    } else if (name == "blktrace") {
        out = Format::Blktrace;
    } else if (name == "biosnoop") {
        out = Format::Biosnoop;
    } else if (name == "alibaba") {
        out = Format::Alibaba;
    } else if (name == "tencent") {
        out = Format::Tencent;
    } else {
        return false;
    }
    return true;
}

const char *
formatName(Format f)
{
    switch (f) {
    case Format::EmmcTrace:
        return "emmctrace";
    case Format::Blktrace:
        return "blktrace";
    case Format::Biosnoop:
        return "biosnoop";
    case Format::Alibaba:
        return "alibaba";
    case Format::Tencent:
        return "tencent";
    }
    return "?";
}

std::string
formatNames()
{
    return "emmctrace, blktrace, biosnoop, alibaba, tencent";
}

bool
ingestFile(Format format, const std::string &in_path,
           const IngestOptions &opts, Trace &out, IngestStats &stats,
           std::string &error)
{
    stats = IngestStats{};
    out = Trace{};

    std::vector<RawRecord> raw;
    std::string source_name; // passthrough keeps the input's name
    if (format == Format::EmmcTrace) {
        if (!loadEmmcTrace(in_path, raw, stats, source_name, error))
            return false;
    } else {
        if (!parseLines(parserFor(format), in_path, raw, stats, error))
            return false;
    }

    std::set<std::string> volumes;
    for (const RawRecord &r : raw)
        volumes.insert(r.volume);
    stats.volumesSeen = volumes.size();

    // Filter + align into normalized (still source-epoch) records.
    struct Pending
    {
        sim::Time ts;
        std::uint64_t offsetBytes;
        std::uint64_t lengthBytes;
        bool write;
    };
    std::vector<Pending> pend;
    pend.reserve(raw.size());
    for (const RawRecord &r : raw) {
        if (!opts.volume.empty() && r.volume != opts.volume) {
            ++stats.droppedVolume;
            continue;
        }
        // 4KB alignment: floor the start, ceil the end — the covering
        // extent, as the paper's page-aligned file systems issue it.
        const std::uint64_t begin =
            r.offsetBytes / sim::kUnitBytes * sim::kUnitBytes;
        const std::uint64_t end_raw = r.offsetBytes + r.lengthBytes;
        const std::uint64_t end =
            (end_raw + sim::kUnitBytes - 1) / sim::kUnitBytes *
            sim::kUnitBytes;
        if (end == begin) {
            ++stats.droppedZeroSize;
            continue;
        }
        if (begin != r.offsetBytes || end != end_raw)
            ++stats.aligned;
        pend.push_back(Pending{r.timestampNs, begin, end - begin,
                               r.write});
    }
    raw.clear();
    raw.shrink_to_fit();

    // Sort (stable, matching Trace::sortByArrival: ties keep input
    // order), then rebase the clock to ns-from-first-arrival.
    std::stable_sort(pend.begin(), pend.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.ts < b.ts;
                     });
    const sim::Time epoch = pend.empty() ? 0 : pend.front().ts;

    out.setName(!opts.name.empty()
                    ? opts.name
                    : (!source_name.empty() ? source_name
                                            : baseName(in_path)));
    out.reserve(pend.size());
    for (const Pending &p : pend) {
        std::uint64_t addr_units = p.offsetBytes / sim::kUnitBytes;
        const std::uint64_t span_units = p.lengthBytes / sim::kUnitBytes;
        if (opts.targetUnits > 0) {
            if (span_units > opts.targetUnits) {
                // Folding cannot fit a request larger than the whole
                // device; dropping (counted) beats silent truncation.
                ++stats.droppedOversize;
                continue;
            }
            // Same fold the replayer applies at replay time, so a
            // pre-remapped trace replays identically. A folded span
            // always moves (it starts past the fold modulus).
            const std::uint64_t folded =
                units::foldUnit(addr_units, span_units, opts.targetUnits);
            if (folded != addr_units) {
                addr_units = folded;
                ++stats.remapped;
            }
        }
        TraceRecord rec;
        rec.arrival = p.ts - epoch;
        rec.lbaSector = units::Lba{addr_units * sim::kSectorsPerUnit};
        rec.sizeBytes = units::Bytes{p.lengthBytes};
        rec.op = p.write ? OpType::Write : OpType::Read;
        if (p.write) {
            ++stats.writes;
            stats.writeBytes += p.lengthBytes;
        } else {
            ++stats.reads;
            stats.readBytes += p.lengthBytes;
        }
        stats.spanNs = rec.arrival;
        out.push(rec);
    }
    stats.kept = out.size();

    std::string problem = out.validate();
    if (!problem.empty()) {
        // Belt and braces: normalization above should make this
        // unreachable, but a validate() here turns any future importer
        // bug into a loud ingest failure instead of a bad replay.
        error = "normalized trace failed validation: " + problem;
        return false;
    }
    return true;
}

} // namespace emmcsim::trace::ingest
