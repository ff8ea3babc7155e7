#include "trace/ingest/formats.hh"

#include <cctype>
#include <sstream>
#include <vector>

#include "core/cli_util.hh"

namespace emmcsim::trace::ingest {

namespace {

/** Split @p line on @p sep into trimmed fields. */
std::vector<std::string>
splitFields(const std::string &line, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= line.size()) {
        std::size_t end = line.find(sep, start);
        if (end == std::string::npos)
            end = line.size();
        std::size_t a = start;
        std::size_t b = end;
        while (a < b && std::isspace(static_cast<unsigned char>(line[a])))
            ++a;
        while (b > a &&
               std::isspace(static_cast<unsigned char>(line[b - 1])))
            --b;
        out.push_back(line.substr(a, b - a));
        if (end == line.size())
            break;
        start = end + 1;
    }
    return out;
}

/** Whitespace-tokenize @p line (any run of blanks separates). */
std::vector<std::string>
splitWhitespace(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok)
        out.push_back(tok);
    return out;
}

bool
blankLine(const std::string &line)
{
    for (char c : line)
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

constexpr std::uint64_t kMaxSeconds = 9'000'000'000ull; // ~285 years

} // namespace

bool
parseSecondsToNs(const std::string &tok, sim::Time &out)
{
    const std::size_t dot = tok.find('.');
    const std::string whole =
        dot == std::string::npos ? tok : tok.substr(0, dot);
    std::uint64_t secs = 0;
    if (!core::parseU64(whole, secs) || secs > kMaxSeconds)
        return false;
    std::uint64_t frac_ns = 0;
    if (dot != std::string::npos) {
        std::string frac = tok.substr(dot + 1);
        if (frac.empty())
            return false;
        if (frac.size() > 9)
            frac.resize(9); // truncate below ns resolution
        while (frac.size() < 9)
            frac.push_back('0');
        if (!core::parseU64(frac, frac_ns))
            return false;
    }
    out = static_cast<sim::Time>(secs * 1'000'000'000ull + frac_ns);
    return true;
}

LineResult
parseBlktraceLine(const std::string &line, RawRecord &out,
                  std::string &error)
{
    if (blankLine(line))
        return LineResult::Skip;
    // blkparse appends summary sections ("CPU0 (sda):", "Total ...",
    // "Reads Queued:", ...) after the event stream; anything whose
    // first field is not a maj,min device number belongs to them.
    const std::vector<std::string> f = splitWhitespace(line);
    if (f.size() < 7 || f[0].find(',') == std::string::npos)
        return LineResult::Skip;
    const std::string &action = f[5];
    if (action != "Q")
        return LineResult::Skip; // C/D/I/M/...: not an arrival
    const std::string &rwbs = f[6];
    bool is_write = false;
    bool has_dir = false;
    for (char c : rwbs) {
        if (c == 'W') {
            is_write = true;
            has_dir = true;
        } else if (c == 'R') {
            has_dir = true;
        }
    }
    if (!has_dir)
        return LineResult::Skip; // barrier/flush-only record
    if (f.size() < 10 || f[8] != "+") {
        error = "blktrace Q event without 'sector + count'";
        return LineResult::Error;
    }
    sim::Time ts = 0;
    std::uint64_t start_sectors = 0;
    std::uint64_t count_sectors = 0;
    if (!parseSecondsToNs(f[3], ts)) {
        error = "bad blktrace timestamp: " + f[3];
        return LineResult::Error;
    }
    if (!core::parseU64(f[7], start_sectors) ||
        !core::parseU64(f[9], count_sectors)) {
        error = "bad blktrace sector fields: " + f[7] + " + " + f[9];
        return LineResult::Error;
    }
    out.timestampNs = ts;
    out.offsetBytes = start_sectors * sim::kSectorBytes;
    out.lengthBytes = count_sectors * sim::kSectorBytes;
    out.write = is_write;
    out.volume = f[0];
    return LineResult::Record;
}

LineResult
parseBiosnoopLine(const std::string &line, RawRecord &out,
                  std::string &error)
{
    if (blankLine(line))
        return LineResult::Skip;
    const std::vector<std::string> f = splitWhitespace(line);
    if (!f.empty() && f[0] == "TIME(s)")
        return LineResult::Skip; // column header
    if (f.size() < 8) {
        error = "biosnoop line needs 8 columns "
                "(TIME COMM PID DISK T SECTOR BYTES LAT)";
        return LineResult::Error;
    }
    const std::string &dir = f[4];
    if (dir != "R" && dir != "W") {
        error = "bad biosnoop op (want R or W): " + dir;
        return LineResult::Error;
    }
    sim::Time ts = 0;
    std::uint64_t start_sectors = 0;
    std::uint64_t bytes = 0;
    if (!parseSecondsToNs(f[0], ts)) {
        error = "bad biosnoop timestamp: " + f[0];
        return LineResult::Error;
    }
    if (!core::parseU64(f[5], start_sectors) || !core::parseU64(f[6], bytes)) {
        error = "bad biosnoop sector/bytes fields: " + f[5] + " " + f[6];
        return LineResult::Error;
    }
    out.timestampNs = ts;
    out.offsetBytes = start_sectors * sim::kSectorBytes;
    out.lengthBytes = bytes;
    out.write = dir == "W";
    out.volume = f[3];
    return LineResult::Record;
}

LineResult
parseAlibabaLine(const std::string &line, RawRecord &out,
                 std::string &error)
{
    if (blankLine(line))
        return LineResult::Skip;
    const std::vector<std::string> f = splitFields(line, ',');
    if (!f.empty() && f[0] == "device_id")
        return LineResult::Skip; // column header
    if (f.size() < 5) {
        error = "alibaba line needs 5 CSV fields "
                "(device_id,opcode,offset,length,timestamp)";
        return LineResult::Error;
    }
    if (f[1] != "R" && f[1] != "W") {
        error = "bad alibaba opcode (want R or W): " + f[1];
        return LineResult::Error;
    }
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t ts_us = 0;
    if (!core::parseU64(f[2], off) || !core::parseU64(f[3], len) ||
        !core::parseU64(f[4], ts_us)) {
        error = "bad alibaba numeric fields: " + f[2] + "," + f[3] + "," +
                f[4];
        return LineResult::Error;
    }
    out.timestampNs = static_cast<sim::Time>(ts_us) * 1000;
    out.offsetBytes = off;
    out.lengthBytes = len;
    out.write = f[1] == "W";
    out.volume = f[0];
    return LineResult::Record;
}

LineResult
parseTencentLine(const std::string &line, RawRecord &out,
                 std::string &error)
{
    if (blankLine(line))
        return LineResult::Skip;
    const std::vector<std::string> f = splitFields(line, ',');
    if (!f.empty() && (f[0] == "timestamp" || f[0] == "Timestamp"))
        return LineResult::Skip; // column header
    if (f.size() < 5) {
        error = "tencent line needs 5 CSV fields "
                "(timestamp,offset,size,iotype,volume_id)";
        return LineResult::Error;
    }
    sim::Time ts = 0;
    std::uint64_t off_sectors = 0;
    std::uint64_t size_sectors = 0;
    if (!parseSecondsToNs(f[0], ts)) {
        error = "bad tencent timestamp: " + f[0];
        return LineResult::Error;
    }
    if (!core::parseU64(f[1], off_sectors) ||
        !core::parseU64(f[2], size_sectors)) {
        error = "bad tencent offset/size fields: " + f[1] + "," + f[2];
        return LineResult::Error;
    }
    if (f[3] != "0" && f[3] != "1") {
        error = "bad tencent iotype (want 0=read or 1=write): " + f[3];
        return LineResult::Error;
    }
    out.timestampNs = ts;
    out.offsetBytes = off_sectors * sim::kSectorBytes;
    out.lengthBytes = size_sectors * sim::kSectorBytes;
    out.write = f[3] == "1";
    out.volume = f[4];
    return LineResult::Record;
}

} // namespace emmcsim::trace::ingest
