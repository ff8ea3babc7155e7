#include "trace/ingest/formats.hh"

#include <array>
#include <string_view>

#include "core/cli_util.hh"
#include "trace/parse.hh"

namespace emmcsim::trace::ingest {

constexpr std::uint64_t kMaxSeconds = 9'000'000'000ull; // ~285 years

bool
parseSecondsToNs(std::string_view tok, sim::Time &out)
{
    const std::size_t dot = tok.find('.');
    std::uint64_t secs = 0;
    if (!core::parseU64(tok.substr(0, dot), secs) || secs > kMaxSeconds)
        return false;
    std::uint64_t frac_ns = 0;
    if (dot != std::string_view::npos) {
        const std::string_view frac = tok.substr(dot + 1);
        // Digits below ns resolution are checked, then truncated.
        if (frac.find_first_not_of("0123456789") != std::string_view::npos ||
            !core::parseU64(frac.substr(0, 9), frac_ns))
            return false;
        for (std::size_t i = frac.size(); i < 9; ++i)
            frac_ns *= 10;
    }
    out = static_cast<sim::Time>(secs * 1'000'000'000ull + frac_ns);
    return true;
}

LineResult
parseBlktraceLine(const std::string &line, RawRecord &out,
                  std::string &error)
{
    // blkparse appends summary sections ("CPU0 (sda):", "Total ...",
    // "Reads Queued:", ...) after the event stream; a blank line or
    // one whose first field is not a maj,min device number belongs to
    // them.
    std::array<std::string_view, 10> f;
    const std::size_t n = splitFields(line, f);
    if (n < 7 || f[0].find(',') == std::string_view::npos)
        return LineResult::Skip;
    if (f[5] != "Q")
        return LineResult::Skip; // C/D/I/M/...: not an arrival
    const std::string_view rwbs = f[6];
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
    if (n < 10 || f[8] != "+") {
        error = "blktrace Q event without 'sector + count'";
        return LineResult::Error;
    }
    sim::Time ts = 0;
    std::uint64_t start_sectors = 0;
    std::uint64_t count_sectors = 0;
    if (!parseSecondsToNs(f[3], ts)) {
        error = "bad blktrace timestamp: " + std::string(f[3]);
        return LineResult::Error;
    }
    if (!core::parseU64(f[7], start_sectors) ||
        !core::parseU64(f[9], count_sectors)) {
        error = "bad blktrace sector fields: " + std::string(f[7]) +
                " + " + std::string(f[9]);
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
    std::array<std::string_view, 8> f;
    const std::size_t n = splitFields(line, f);
    if (n == 0 || f[0] == "TIME(s)")
        return LineResult::Skip; // blank line or column header
    if (n < 8) {
        error = "biosnoop line needs 8 columns "
                "(TIME COMM PID DISK T SECTOR BYTES LAT)";
        return LineResult::Error;
    }
    const std::string_view dir = f[4];
    if (dir != "R" && dir != "W") {
        error = "bad biosnoop op (want R or W): " + std::string(dir);
        return LineResult::Error;
    }
    sim::Time ts = 0;
    std::uint64_t start_sectors = 0;
    std::uint64_t bytes = 0;
    if (!parseSecondsToNs(f[0], ts)) {
        error = "bad biosnoop timestamp: " + std::string(f[0]);
        return LineResult::Error;
    }
    if (!core::parseU64(f[5], start_sectors) || !core::parseU64(f[6], bytes)) {
        error = "bad biosnoop sector/bytes fields: " + std::string(f[5]) +
                " " + std::string(f[6]);
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
    std::array<std::string_view, 5> f;
    const std::size_t n = splitFields(line, f, ',');
    if ((n == 1 && f[0].empty()) || f[0] == "device_id")
        return LineResult::Skip; // blank line or column header
    if (n < 5) {
        error = "alibaba line needs 5 CSV fields "
                "(device_id,opcode,offset,length,timestamp)";
        return LineResult::Error;
    }
    if (f[1] != "R" && f[1] != "W") {
        error = "bad alibaba opcode (want R or W): " + std::string(f[1]);
        return LineResult::Error;
    }
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t ts_us = 0;
    if (!core::parseU64(f[2], off) || !core::parseU64(f[3], len) ||
        !core::parseU64(f[4], ts_us)) {
        error = "bad alibaba numeric fields: " + std::string(f[2]) + "," +
                std::string(f[3]) + "," + std::string(f[4]);
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
    std::array<std::string_view, 5> f;
    const std::size_t n = splitFields(line, f, ',');
    if ((n == 1 && f[0].empty()) || f[0] == "timestamp" ||
        f[0] == "Timestamp")
        return LineResult::Skip; // blank line or column header
    if (n < 5) {
        error = "tencent line needs 5 CSV fields "
                "(timestamp,offset,size,iotype,volume_id)";
        return LineResult::Error;
    }
    sim::Time ts = 0;
    std::uint64_t off_sectors = 0;
    std::uint64_t size_sectors = 0;
    if (!parseSecondsToNs(f[0], ts)) {
        error = "bad tencent timestamp: " + std::string(f[0]);
        return LineResult::Error;
    }
    if (!core::parseU64(f[1], off_sectors) ||
        !core::parseU64(f[2], size_sectors)) {
        error = "bad tencent offset/size fields: " + std::string(f[1]) +
                "," + std::string(f[2]);
        return LineResult::Error;
    }
    if (f[3] != "0" && f[3] != "1") {
        error = "bad tencent iotype (want 0=read or 1=write): " +
                std::string(f[3]);
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
