#include "trace/binfmt.hh"

#include <cstring>
#include <utility>

#include "sim/logging.hh"
#include "trace/parse.hh"

namespace emmcsim::trace {

namespace {

/** Blocks are length-prefixed; refuse absurd prefixes from corrupt
 *  files before allocating for them. */
constexpr std::uint32_t kMaxBlockBody = 1u << 26;

/** Header field offsets (see binfmt.hh layout comment). */
constexpr std::size_t kOffVersion = 16;
constexpr std::size_t kOffFlags = 20;
constexpr std::size_t kOffRecordCount = 24;
constexpr std::size_t kOffChecksum = 32;
constexpr std::size_t kOffBlockRecords = 40;
constexpr std::size_t kOffNameLen = 44;

void
putU32(char *p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
}

void
putU64(char *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** Parse + sanity-check the fixed header and name from @p is. */
bool
parseHeader(std::istream &is, BinTraceInfo &out, TraceLoadError &err)
{
    char hdr[kBinTraceHeaderBytes];
    is.read(hdr, sizeof hdr);
    if (is.gcount() != static_cast<std::streamsize>(sizeof hdr)) {
        err.reason = "not an emmctrace-bin file (header truncated)";
        return false;
    }
    if (std::memcmp(hdr, kBinTraceMagic, kBinTraceMagicLen) != 0) {
        err.reason = "not an emmctrace-bin file (bad magic)";
        return false;
    }
    const std::uint32_t version = getU32(hdr + kOffVersion);
    if (version != 1) {
        err.reason = "unsupported emmctrace-bin version " +
                     std::to_string(version);
        return false;
    }
    const std::uint32_t flags = getU32(hdr + kOffFlags);
    out.hasReplayTimes = (flags & kBinTraceFlagReplayTimes) != 0;
    out.records = getU64(hdr + kOffRecordCount);
    out.checksum = getU64(hdr + kOffChecksum);
    out.blockRecords = getU32(hdr + kOffBlockRecords);
    const std::uint32_t nameLen = getU32(hdr + kOffNameLen);
    if (out.blockRecords == 0 || out.blockRecords > (1u << 20)) {
        err.reason = "corrupt emmctrace-bin header (block size " +
                     std::to_string(out.blockRecords) + ")";
        return false;
    }
    if (nameLen > 4096) {
        err.reason = "corrupt emmctrace-bin header (name length " +
                     std::to_string(nameLen) + ")";
        return false;
    }
    out.name.resize(nameLen);
    if (nameLen > 0) {
        is.read(out.name.data(), nameLen);
        if (is.gcount() != static_cast<std::streamsize>(nameLen)) {
            err.reason = "emmctrace-bin file truncated in the name";
            return false;
        }
    }
    return true;
}

} // namespace

BinTraceWriter::BinTraceWriter(std::ostream &os, const std::string &name,
                               bool withReplayTimes)
    : os_(os), withReplayTimes_(withReplayTimes)
{
    char hdr[kBinTraceHeaderBytes];
    std::memset(hdr, 0, sizeof hdr);
    std::memcpy(hdr, kBinTraceMagic, kBinTraceMagicLen);
    putU32(hdr + kOffVersion, 1);
    putU32(hdr + kOffFlags,
           withReplayTimes_ ? kBinTraceFlagReplayTimes : 0u);
    // Record count and checksum stay zero until finish() patches them.
    putU32(hdr + kOffBlockRecords, kBinTraceBlockRecords);
    putU32(hdr + kOffNameLen,
           static_cast<std::uint32_t>(name.size()));
    os_.write(hdr, sizeof hdr);
    os_.write(name.data(),
              static_cast<std::streamsize>(name.size()));
    block_.reserve(kBinTraceBlockRecords);
}

void
BinTraceWriter::add(const TraceRecord &r)
{
    EMMCSIM_ASSERT(!finished_, "add() after finish()");
    EMMCSIM_ASSERT(r.arrival >= prevArrival_ || records_ == 0,
                   "binary trace records must arrive sorted");
    EMMCSIM_ASSERT(!withReplayTimes_ || r.replayed(),
                   "replay-time columns requested but record carries "
                   "no replay timestamps");
    block_.push_back(r);
    ++records_;
    if (block_.size() == kBinTraceBlockRecords)
        flushBlock();
}

void
BinTraceWriter::flushBlock()
{
    if (block_.empty())
        return;
    core::BinWriter body;
    for (const TraceRecord &r : block_) {
        body.vu64(static_cast<std::uint64_t>(r.arrival - prevArrival_));
        prevArrival_ = r.arrival;
    }
    for (const TraceRecord &r : block_) {
        const auto sector =
            static_cast<std::int64_t>(r.lbaSector.value());
        body.vi64(sector - prevLbaSector_);
        prevLbaSector_ = sector;
    }
    for (const TraceRecord &r : block_)
        body.vu64(units::bytesToUnitsCeil(r.sizeBytes));
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < block_.size(); ++i) {
        if (block_[i].isWrite())
            acc |= static_cast<std::uint8_t>(1u << (i % 8));
        if (i % 8 == 7) {
            body.u8(acc);
            acc = 0;
        }
    }
    if (block_.size() % 8 != 0)
        body.u8(acc);
    if (withReplayTimes_) {
        for (const TraceRecord &r : block_) {
            body.vu64(
                static_cast<std::uint64_t>(r.serviceStart - r.arrival));
        }
        for (const TraceRecord &r : block_) {
            body.vu64(
                static_cast<std::uint64_t>(r.finish - r.serviceStart));
        }
    }
    char prefix[8];
    putU32(prefix, static_cast<std::uint32_t>(block_.size()));
    putU32(prefix + 4, static_cast<std::uint32_t>(body.data().size()));
    os_.write(prefix, sizeof prefix);
    os_.write(body.data().data(),
              static_cast<std::streamsize>(body.data().size()));
    checksum_.update(prefix, sizeof prefix);
    checksum_.update(body.data());
    block_.clear();
}

bool
BinTraceWriter::finish()
{
    if (finished_)
        return os_.good();
    flushBlock();
    finished_ = true;
    char patch[16];
    putU64(patch, records_);
    putU64(patch + 8, checksum_.value());
    os_.seekp(static_cast<std::streamoff>(kOffRecordCount));
    os_.write(patch, sizeof patch);
    os_.seekp(0, std::ios_base::end);
    os_.flush();
    return os_.good();
}

void
saveBinTraceFile(const Trace &t, const std::string &path)
{
    bool allReplayed = !t.empty();
    for (const TraceRecord &r : t.records()) {
        if (!r.replayed()) {
            allReplayed = false;
            break;
        }
    }
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        sim::fatal("cannot open trace file for writing: " + path);
    BinTraceWriter w(os, t.name(), allReplayed);
    for (const TraceRecord &r : t.records())
        w.add(r);
    if (!w.finish())
        sim::fatal("error while writing trace file: " + path);
}

BinTraceSource::BinTraceSource(std::string path)
    : path_(std::move(path)), is_(path_, std::ios::binary)
{
    if (!is_) {
        err_.line = 0;
        err_.reason = "cannot open trace file: " + path_;
        return;
    }
    openHeader();
}

void
BinTraceSource::openHeader()
{
    if (parseHeader(is_, info_, err_))
        name_ = info_.name;
}

bool
BinTraceSource::loadBlock()
{
    if (!err_.ok() || eof_)
        return false;
    char prefix[8];
    is_.read(prefix, sizeof prefix);
    if (is_.gcount() == 0 && is_.eof()) {
        // Clean end of file: now — and only now — the header's record
        // count and checksum can be verified.
        eof_ = true;
        if (produced_ != info_.records) {
            err_.reason =
                "record count mismatch: header declares " +
                std::to_string(info_.records) + " records, file has " +
                std::to_string(produced_) +
                " (truncated or corrupt trace?)";
        } else if (checksum_.value() != info_.checksum) {
            err_.reason = "emmctrace-bin checksum mismatch (corrupt "
                          "or incompletely written trace)";
        }
        return false;
    }
    if (is_.gcount() != static_cast<std::streamsize>(sizeof prefix)) {
        err_.reason = "emmctrace-bin file truncated mid-block";
        return false;
    }
    const std::uint32_t n = getU32(prefix);
    const std::uint32_t bodyLen = getU32(prefix + 4);
    if (n == 0 || n > info_.blockRecords || bodyLen == 0 ||
        bodyLen > kMaxBlockBody) {
        err_.reason = "corrupt emmctrace-bin block header";
        return false;
    }
    blockBuf_.resize(bodyLen);
    is_.read(blockBuf_.data(), bodyLen);
    if (is_.gcount() != static_cast<std::streamsize>(bodyLen)) {
        err_.reason = "emmctrace-bin file truncated mid-block";
        return false;
    }
    checksum_.update(prefix, sizeof prefix);
    checksum_.update(blockBuf_);
    return decodeBlockBody(blockBuf_, n);
}

bool
BinTraceSource::decodeBlockBody(std::string_view body, std::uint32_t n)
{
    core::BinReader rd(body);
    decoded_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        prevArrival_ += static_cast<sim::Time>(rd.vu64());
        decoded_[i] = TraceRecord{};
        decoded_[i].arrival = prevArrival_;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        prevLbaSector_ += rd.vi64();
        if (prevLbaSector_ < 0) {
            err_.reason = "corrupt emmctrace-bin block (negative lba)";
            return false;
        }
        decoded_[i].lbaSector = units::Lba{
            static_cast<std::uint64_t>(prevLbaSector_)};
    }
    for (std::uint32_t i = 0; i < n; ++i)
        decoded_[i].sizeBytes = units::unitsToBytes(rd.vu64());
    std::uint8_t acc = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (i % 8 == 0)
            acc = rd.u8();
        decoded_[i].op =
            ((acc >> (i % 8)) & 1u) ? OpType::Write : OpType::Read;
    }
    if (info_.hasReplayTimes) {
        for (std::uint32_t i = 0; i < n; ++i) {
            decoded_[i].serviceStart =
                decoded_[i].arrival + static_cast<sim::Time>(rd.vu64());
        }
        for (std::uint32_t i = 0; i < n; ++i) {
            decoded_[i].finish = decoded_[i].serviceStart +
                                 static_cast<sim::Time>(rd.vu64());
        }
    }
    if (!rd.ok() || rd.remaining() != 0) {
        err_.reason = "corrupt emmctrace-bin block body";
        return false;
    }
    // Cheap per-record insurance: the checksum only fires at end of
    // stream, but a corrupt middle block must not feed the replayer
    // invariant-breaking records until then.
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string reason = checkRecord(decoded_[i]);
        if (!reason.empty()) {
            err_.reason = "corrupt emmctrace-bin record " +
                          std::to_string(produced_ + i) + ": " + reason;
            return false;
        }
    }
    produced_ += n;
    pos_ = 0;
    return true;
}

std::size_t
BinTraceSource::next(TraceRecord *out, std::size_t max)
{
    std::size_t filled = 0;
    while (filled < max && !failed()) {
        if (pos_ == decoded_.size()) {
            if (!loadBlock())
                break;
        }
        while (filled < max && pos_ < decoded_.size())
            out[filled++] = decoded_[pos_++];
    }
    return filled;
}

void
BinTraceSource::reset()
{
    err_ = TraceLoadError{};
    name_.clear();
    info_ = BinTraceInfo{};
    decoded_.clear();
    pos_ = 0;
    produced_ = 0;
    prevArrival_ = 0;
    prevLbaSector_ = 0;
    checksum_.reset();
    eof_ = false;
    is_.clear();
    is_.seekg(0);
    if (!is_) {
        is_.close();
        is_.open(path_, std::ios::binary);
        if (!is_) {
            err_.line = 0;
            err_.reason = "cannot reopen trace file: " + path_;
            return;
        }
    }
    openHeader();
}

bool
BinTraceSource::isBinTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    char magic[kBinTraceMagicLen];
    is.read(magic, sizeof magic);
    return is.gcount() == static_cast<std::streamsize>(sizeof magic) &&
           std::memcmp(magic, kBinTraceMagic, kBinTraceMagicLen) == 0;
}

bool
BinTraceSource::readInfo(const std::string &path, BinTraceInfo &out,
                         TraceLoadError &err)
{
    err = TraceLoadError{};
    out = BinTraceInfo{};
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        err.reason = "cannot open trace file: " + path;
        return false;
    }
    return parseHeader(is, out, err);
}

} // namespace emmcsim::trace
