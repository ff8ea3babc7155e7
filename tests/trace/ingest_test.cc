/**
 * @file
 * Ingestion pipeline tests: varint coding, the emmctrace-bin v1
 * round trip and its corruption detection, streaming TraceSources,
 * and the foreign-format importers on checked-in fixtures.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/binio.hh"
#include "trace/binfmt.hh"
#include "trace/ingest/formats.hh"
#include "trace/ingest/ingest.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

using namespace emmcsim;
using namespace emmcsim::trace;

namespace {

TraceRecord
rec(sim::Time arrival, std::uint64_t unit, std::uint64_t units,
    OpType op)
{
    TraceRecord r;
    r.arrival = arrival;
    r.lbaSector = emmcsim::units::unitToLba(
        emmcsim::units::UnitAddr{static_cast<std::int64_t>(unit)});
    r.sizeBytes = emmcsim::units::unitsToBytes(units);
    r.op = op;
    return r;
}

Trace
sampleTrace(std::size_t n = 3)
{
    Trace t("Sample");
    for (std::size_t i = 0; i < n; ++i) {
        t.push(rec(static_cast<sim::Time>(i) * 1000, (i * 37) % 500,
                   1 + i % 4, i % 3 == 0 ? OpType::Write : OpType::Read));
    }
    return t;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
    ASSERT_TRUE(os.good());
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** Drain @p src completely; fails the test on a source error. */
std::vector<TraceRecord>
drain(TraceSource &src)
{
    std::vector<TraceRecord> out;
    TraceRecord buf[7]; // odd size: exercises partial-chunk reads
    while (true) {
        const std::size_t n = src.next(buf, 7);
        if (n == 0)
            break;
        out.insert(out.end(), buf, buf + n);
    }
    EXPECT_FALSE(src.failed()) << src.error().message();
    return out;
}

void
expectSameRecords(const std::vector<TraceRecord> &got, const Trace &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].arrival, want[i].arrival) << "record " << i;
        EXPECT_EQ(got[i].lbaSector, want[i].lbaSector) << "record " << i;
        EXPECT_EQ(got[i].sizeBytes, want[i].sizeBytes) << "record " << i;
        EXPECT_EQ(got[i].op, want[i].op) << "record " << i;
        EXPECT_EQ(got[i].serviceStart, want[i].serviceStart)
            << "record " << i;
        EXPECT_EQ(got[i].finish, want[i].finish) << "record " << i;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Varint coding (core/binio)

TEST(Varint, U64RoundTripBoundaries)
{
    const std::uint64_t cases[] = {
        0,      1,        127,     128,     16383,
        16384,  (1u << 21) - 1,    1u << 21, 0xFFFFFFFFull,
        std::uint64_t{1} << 63,    ~std::uint64_t{0}};
    core::BinWriter w;
    for (std::uint64_t v : cases)
        w.vu64(v);
    const std::string bytes = w.take();
    core::BinReader r(bytes);
    for (std::uint64_t v : cases)
        EXPECT_EQ(r.vu64(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Varint, I64ZigzagRoundTrip)
{
    const std::int64_t cases[] = {0,  -1, 1,  -2, 2,
                                  std::int64_t{1} << 40,
                                  -(std::int64_t{1} << 40),
                                  INT64_MAX, INT64_MIN};
    core::BinWriter w;
    for (std::int64_t v : cases)
        w.vi64(v);
    core::BinReader r(w.data());
    for (std::int64_t v : cases)
        EXPECT_EQ(r.vi64(), v);
    EXPECT_TRUE(r.ok());
}

TEST(Varint, SmallValuesEncodeSmall)
{
    core::BinWriter w;
    w.vu64(5);
    EXPECT_EQ(w.data().size(), 1u);
    w.vu64(300);
    EXPECT_EQ(w.data().size(), 3u);
}

TEST(Varint, OverlongEncodingRejected)
{
    // 11 continuation bytes cannot be a valid u64 varint; the reader
    // must fail instead of shifting bits into oblivion.
    std::string overlong(11, '\x80');
    overlong.push_back('\x01');
    core::BinReader r(overlong);
    r.vu64();
    EXPECT_FALSE(r.ok());
}

TEST(Varint, TruncatedEncodingRejected)
{
    core::BinReader r(std::string_view("\x80", 1));
    r.vu64();
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// emmctrace-bin v1 (trace/binfmt)

TEST(BinTrace, RoundTripWithoutTimestamps)
{
    const Trace t = sampleTrace(100);
    const std::string path = tempPath("bt_plain.bin");
    saveBinTraceFile(t, path);

    EXPECT_TRUE(BinTraceSource::isBinTraceFile(path));
    BinTraceSource src(path);
    ASSERT_FALSE(src.failed()) << src.error().message();
    EXPECT_EQ(src.name(), "Sample");
    EXPECT_EQ(src.info().records, 100u);
    EXPECT_FALSE(src.info().hasReplayTimes);
    expectSameRecords(drain(src), t);
}

TEST(BinTrace, RoundTripWithTimestamps)
{
    Trace t = sampleTrace(20);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t[i].serviceStart = t[i].arrival + 7;
        t[i].finish = t[i].arrival + 900 + static_cast<sim::Time>(i);
    }
    const std::string path = tempPath("bt_times.bin");
    saveBinTraceFile(t, path);

    BinTraceSource src(path);
    ASSERT_FALSE(src.failed());
    EXPECT_TRUE(src.info().hasReplayTimes);
    expectSameRecords(drain(src), t);
}

TEST(BinTrace, MultiBlockRoundTripAndReset)
{
    // > kBinTraceBlockRecords records forces the delta chains to span
    // block boundaries; reset() must replay identically.
    const Trace t = sampleTrace(kBinTraceBlockRecords + 123);
    const std::string path = tempPath("bt_blocks.bin");
    saveBinTraceFile(t, path);

    BinTraceSource src(path);
    expectSameRecords(drain(src), t);
    src.reset();
    ASSERT_FALSE(src.failed()) << src.error().message();
    expectSameRecords(drain(src), t);
}

TEST(BinTrace, EmptyTraceRoundTrip)
{
    Trace t("Empty");
    const std::string path = tempPath("bt_empty.bin");
    saveBinTraceFile(t, path);
    BinTraceSource src(path);
    ASSERT_FALSE(src.failed()) << src.error().message();
    TraceRecord r;
    EXPECT_EQ(src.next(&r, 1), 0u);
    EXPECT_FALSE(src.failed());
}

TEST(BinTrace, ReadInfoWithoutStreaming)
{
    const Trace t = sampleTrace(10);
    const std::string path = tempPath("bt_info.bin");
    saveBinTraceFile(t, path);
    BinTraceInfo info;
    TraceLoadError err;
    ASSERT_TRUE(BinTraceSource::readInfo(path, info, err))
        << err.message();
    EXPECT_EQ(info.name, "Sample");
    EXPECT_EQ(info.records, 10u);
    EXPECT_EQ(info.blockRecords, kBinTraceBlockRecords);
}

TEST(BinTrace, BadMagicRejected)
{
    const std::string path = tempPath("bt_notbin.bin");
    // Long enough for a full 48-byte header read: the failure must be
    // the magic check, not a short read.
    writeFile(path, std::string(64, 'x'));
    EXPECT_FALSE(BinTraceSource::isBinTraceFile(path));
    BinTraceSource src(path);
    EXPECT_TRUE(src.failed());
    EXPECT_NE(src.error().reason.find("magic"), std::string::npos);
}

TEST(BinTrace, TruncationDetected)
{
    const Trace t = sampleTrace(50);
    const std::string path = tempPath("bt_trunc.bin");
    saveBinTraceFile(t, path);
    std::string bytes = readFile(path);
    writeFile(tempPath("bt_trunc2.bin"),
              bytes.substr(0, bytes.size() - 10));

    BinTraceSource src(tempPath("bt_trunc2.bin"));
    std::vector<TraceRecord> buf(64);
    while (src.next(buf.data(), buf.size()) > 0) {
    }
    EXPECT_TRUE(src.failed());
}

TEST(BinTrace, BitRotFailsChecksum)
{
    const Trace t = sampleTrace(50);
    const std::string path = tempPath("bt_rot.bin");
    saveBinTraceFile(t, path);
    std::string bytes = readFile(path);
    // Flip one bit in the last block body, past the header.
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
    writeFile(tempPath("bt_rot2.bin"), bytes);

    BinTraceSource src(tempPath("bt_rot2.bin"));
    std::vector<TraceRecord> buf(64);
    while (src.next(buf.data(), buf.size()) > 0) {
    }
    EXPECT_TRUE(src.failed());
}

// ---------------------------------------------------------------------------
// Streaming sources (trace/source)

TEST(MemorySource, StreamsAndResets)
{
    const Trace t = sampleTrace(10);
    MemoryTraceSource src(t);
    EXPECT_EQ(src.name(), "Sample");
    expectSameRecords(drain(src), t);
    src.reset();
    expectSameRecords(drain(src), t);
}

TEST(TextSource, MatchesTryLoad)
{
    const Trace t = sampleTrace(25);
    const std::string path = tempPath("ts_match.trace");
    t.saveFile(path);
    TextTraceSource src(path);
    ASSERT_FALSE(src.failed()) << src.error().message();
    EXPECT_EQ(src.name(), "Sample");
    expectSameRecords(drain(src), t);
    src.reset();
    expectSameRecords(drain(src), t);
}

TEST(TextSource, UnsortedArrivalsRejected)
{
    // Trace::tryLoad re-sorts; a streaming cursor cannot, so it must
    // reject instead of silently replaying out of order.
    const std::string path = tempPath("ts_unsorted.trace");
    writeFile(path, "500 0 4096 W\n100 8 4096 R\n");
    TextTraceSource src(path);
    TraceRecord buf[4];
    while (src.next(buf, 4) > 0) {
    }
    EXPECT_TRUE(src.failed());
    EXPECT_NE(src.error().reason.find("not sorted"), std::string::npos);
}

TEST(TextSource, RecordCountMismatchRejected)
{
    const std::string path = tempPath("ts_count.trace");
    writeFile(path, "# records: 5\n0 0 4096 R\n");
    TextTraceSource src(path);
    TraceRecord buf[4];
    while (src.next(buf, 4) > 0) {
    }
    EXPECT_TRUE(src.failed());
    EXPECT_NE(src.error().reason.find("record count mismatch"),
              std::string::npos);
}

TEST(TextSource, MissingFileFailsEarly)
{
    TextTraceSource src("/nonexistent/stream.trace");
    EXPECT_TRUE(src.failed());
    TraceRecord r;
    EXPECT_EQ(src.next(&r, 1), 0u);
}

// ---------------------------------------------------------------------------
// Timestamp parsing and line importers (trace/ingest)

TEST(IngestParse, SecondsToNsExact)
{
    sim::Time ns = 0;
    ASSERT_TRUE(ingest::parseSecondsToNs("0.000000001", ns));
    EXPECT_EQ(ns, 1);
    ASSERT_TRUE(ingest::parseSecondsToNs("1.5", ns));
    EXPECT_EQ(ns, 1'500'000'000);
    ASSERT_TRUE(ingest::parseSecondsToNs("123", ns));
    EXPECT_EQ(ns, 123'000'000'000);
    // Epoch-scale seconds with full ns precision: a double round-trip
    // would lose the low digits, the string split must not.
    ASSERT_TRUE(ingest::parseSecondsToNs("1538323200.123456789", ns));
    EXPECT_EQ(ns, 1538323200'123456789);
    // Sub-ns digits truncate.
    ASSERT_TRUE(ingest::parseSecondsToNs("0.0000000019", ns));
    EXPECT_EQ(ns, 1);
}

TEST(IngestParse, SecondsToNsRejectsMalformed)
{
    sim::Time ns = 0;
    EXPECT_FALSE(ingest::parseSecondsToNs("abc", ns));
    EXPECT_FALSE(ingest::parseSecondsToNs("1.", ns));
    EXPECT_FALSE(ingest::parseSecondsToNs("", ns));
    EXPECT_FALSE(ingest::parseSecondsToNs("-1.0", ns));
    EXPECT_FALSE(ingest::parseSecondsToNs("99999999999", ns));
}

TEST(IngestParse, BlktraceQueueEventParsed)
{
    ingest::RawRecord r;
    std::string err;
    const auto res = ingest::parseBlktraceLine(
        "  8,0    1  1  1.000000100  99  Q  WS 2048 + 8 [fio]", r, err);
    ASSERT_EQ(res, ingest::LineResult::Record) << err;
    EXPECT_EQ(r.timestampNs, 1'000'000'100);
    EXPECT_EQ(r.offsetBytes, 2048u * 512u);
    EXPECT_EQ(r.lengthBytes, 8u * 512u);
    EXPECT_TRUE(r.write);
    EXPECT_EQ(r.volume, "8,0");
}

TEST(IngestParse, BlktraceNonQueueSkipped)
{
    ingest::RawRecord r;
    std::string err;
    EXPECT_EQ(ingest::parseBlktraceLine(
                  "8,0 1 2 0.1 99 C WS 2048 + 8 [0]", r, err),
              ingest::LineResult::Skip);
    EXPECT_EQ(ingest::parseBlktraceLine("CPU0 (sda):", r, err),
              ingest::LineResult::Skip);
    EXPECT_EQ(ingest::parseBlktraceLine(
                  "8,0 1 3 0.2 99 Q N 0 + 0 [swapper]", r, err),
              ingest::LineResult::Skip)
        << "no R/W in rwbs means no data movement";
}

TEST(IngestParse, BlktraceMalformedQueueIsError)
{
    ingest::RawRecord r;
    std::string err;
    EXPECT_EQ(ingest::parseBlktraceLine(
                  "8,0 1 1 0.1 99 Q W 2048 bogus 8 [fio]", r, err),
              ingest::LineResult::Error);
    EXPECT_FALSE(err.empty());
}

TEST(IngestParse, BiosnoopLineParsed)
{
    ingest::RawRecord r;
    std::string err;
    ASSERT_EQ(ingest::parseBiosnoopLine(
                  "0.002000 fio 1234 sda R 4096 8192 0.21", r, err),
              ingest::LineResult::Record)
        << err;
    EXPECT_EQ(r.timestampNs, 2'000'000);
    EXPECT_EQ(r.offsetBytes, 4096u * 512u);
    EXPECT_EQ(r.lengthBytes, 8192u);
    EXPECT_FALSE(r.write);
    EXPECT_EQ(r.volume, "sda");
}

TEST(IngestParse, AlibabaLineParsed)
{
    ingest::RawRecord r;
    std::string err;
    ASSERT_EQ(ingest::parseAlibabaLine("3,W,1048576,4096,100000", r,
                                       err),
              ingest::LineResult::Record)
        << err;
    EXPECT_EQ(r.timestampNs, 100'000'000); // us -> ns
    EXPECT_EQ(r.offsetBytes, 1048576u);
    EXPECT_EQ(r.lengthBytes, 4096u);
    EXPECT_TRUE(r.write);
    EXPECT_EQ(r.volume, "3");
    EXPECT_EQ(ingest::parseAlibabaLine("3,X,0,4096,1", r, err),
              ingest::LineResult::Error);
}

TEST(IngestParse, TencentLineParsed)
{
    ingest::RawRecord r;
    std::string err;
    ASSERT_EQ(ingest::parseTencentLine("1538323200,2048,8,1,1283", r,
                                       err),
              ingest::LineResult::Record)
        << err;
    EXPECT_EQ(r.timestampNs, 1538323200'000'000'000);
    EXPECT_EQ(r.offsetBytes, 2048u * 512u);
    EXPECT_EQ(r.lengthBytes, 8u * 512u);
    EXPECT_TRUE(r.write);
    EXPECT_EQ(r.volume, "1283");
    EXPECT_EQ(ingest::parseTencentLine("1,0,8,2,v", r, err),
              ingest::LineResult::Error)
        << "iotype other than 0/1 is an error";
}

TEST(IngestParse, NumericFieldsFollowTheStrictU64Contract)
{
    ingest::RawRecord r;
    std::string err;
    // Signs, hex, exponents and values past UINT64_MAX are errors, not
    // silently wrapped or partially parsed numbers.
    for (const char *bad :
         {"+5", "-5", "0x10", "5e3", "18446744073709551616"}) {
        const std::string line = std::string("3,W,") + bad + ",4096,1";
        EXPECT_EQ(ingest::parseAlibabaLine(line, r, err),
                  ingest::LineResult::Error)
            << line;
    }
    ASSERT_EQ(ingest::parseAlibabaLine("3,W,18446744073709551615,4096,1",
                                       r, err),
              ingest::LineResult::Record)
        << err;
    EXPECT_EQ(r.offsetBytes, 18446744073709551615u);
}

// ---------------------------------------------------------------------------
// Ingest pipeline (normalization)

TEST(Ingest, FormatNamesRoundTrip)
{
    for (const ingest::Format f :
         {ingest::Format::EmmcTrace, ingest::Format::Blktrace,
          ingest::Format::Biosnoop, ingest::Format::Alibaba,
          ingest::Format::Tencent}) {
        ingest::Format back;
        ASSERT_TRUE(ingest::formatFromName(ingest::formatName(f), back));
        EXPECT_EQ(back, f);
    }
    ingest::Format f;
    EXPECT_FALSE(ingest::formatFromName("csv", f));
}

TEST(Ingest, NormalizesAlignmentRebaseAndSort)
{
    // Misaligned extent (floor/ceil), out-of-order timestamps, and a
    // nonzero epoch: the pipeline aligns, sorts, and rebases to 0.
    const std::string path = tempPath("ing_norm.csv");
    writeFile(path,
              "device_id,opcode,offset,length,timestamp\n"
              "1,W,5000,4000,2000\n" // 5000..9000: crosses unit 1/2
              "1,R,8192,4096,1000\n" // aligned, earlier
              "1,W,0,0,3000\n");     // zero length: dropped

    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ASSERT_TRUE(ingest::ingestFile(ingest::Format::Alibaba, path, {},
                                   out, st, err))
        << err;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(st.parsed, 3u);
    EXPECT_EQ(st.kept, 2u);
    EXPECT_EQ(st.droppedZeroSize, 1u);
    EXPECT_EQ(st.aligned, 1u);
    // Sorted and rebased: the read at t=1000us becomes t=0.
    EXPECT_EQ(out[0].arrival, 0);
    EXPECT_FALSE(out[0].isWrite());
    EXPECT_EQ(out[1].arrival, 1'000'000); // 1000us later, in ns
    // 5000..9000 bytes covers units 1..2 -> offset 4096, length 8192.
    EXPECT_EQ(out[1].lbaSector.value(), sim::kSectorsPerUnit);
    EXPECT_EQ(out[1].sizeBytes.value(), 2 * sim::kUnitBytes);
    EXPECT_EQ(out.validate(), "");
}

TEST(Ingest, VolumeFilterAndCount)
{
    const std::string path = tempPath("ing_vol.csv");
    writeFile(path, "1,W,0,4096,100\n"
                    "2,W,4096,4096,200\n"
                    "1,R,8192,4096,300\n");
    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ingest::IngestOptions opts;
    opts.volume = "1";
    ASSERT_TRUE(ingest::ingestFile(ingest::Format::Alibaba, path, opts,
                                   out, st, err))
        << err;
    EXPECT_EQ(st.kept, 2u);
    EXPECT_EQ(st.droppedVolume, 1u);
    EXPECT_EQ(st.volumesSeen, 2u);
}

TEST(Ingest, RemapFoldsAndDropsOversize)
{
    const std::string path = tempPath("ing_remap.csv");
    std::ostringstream in;
    // 100 units in a 16-unit device: must fold. 32-unit request: drop.
    in << "1,W," << 100 * sim::kUnitBytes << ",4096,100\n";
    in << "1,W,0," << 32 * sim::kUnitBytes << ",200\n";
    writeFile(path, in.str());

    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ingest::IngestOptions opts;
    opts.targetUnits = 16;
    ASSERT_TRUE(ingest::ingestFile(ingest::Format::Alibaba, path, opts,
                                   out, st, err))
        << err;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(st.remapped, 1u);
    EXPECT_EQ(st.droppedOversize, 1u);
    // Same fold the replayer applies: 100 % (16 - 1 + 1) = 4.
    EXPECT_EQ(out[0].firstUnit().value(), 4);
}

TEST(Ingest, EmmcTracePassthroughStripsReplayTimes)
{
    Trace t = sampleTrace(5);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t[i].serviceStart = t[i].arrival + 5;
        t[i].finish = t[i].arrival + 50;
    }
    const std::string path = tempPath("ing_pass.trace");
    t.saveFile(path);

    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ASSERT_TRUE(ingest::ingestFile(ingest::Format::EmmcTrace, path, {},
                                   out, st, err))
        << err;
    EXPECT_EQ(out.name(), "Sample");
    ASSERT_EQ(out.size(), 5u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_FALSE(out[i].replayed());
        EXPECT_EQ(out[i].arrival, t[i].arrival);
        EXPECT_EQ(out[i].lbaSector, t[i].lbaSector);
    }
}

TEST(Ingest, ParseErrorCarriesLineNumber)
{
    const std::string path = tempPath("ing_badline.csv");
    writeFile(path, "1,W,0,4096,100\n1,W,zero,4096,200\n");
    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    EXPECT_FALSE(ingest::ingestFile(ingest::Format::Alibaba, path, {},
                                    out, st, err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Importer goldens on the checked-in fixtures

TEST(IngestFixtures, Blktrace)
{
    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ASSERT_TRUE(ingest::ingestFile(
        ingest::Format::Blktrace,
        std::string(EMMCSIM_TEST_DATA_DIR) + "/fixture_blktrace.txt", {},
        out, st, err))
        << err;
    // 4 queue events carry data (one on volume 8,16); C/G/D, the
    // zero-length Q N, and the blkparse summary tail are skipped.
    EXPECT_EQ(st.parsed, 4u);
    EXPECT_EQ(st.kept, 4u);
    EXPECT_EQ(st.volumesSeen, 2u);
    EXPECT_EQ(st.reads, 1u);
    EXPECT_EQ(st.writes, 3u);
    EXPECT_EQ(out.validate(), "");
    EXPECT_EQ(out[0].arrival, 0);

    ingest::IngestOptions only80;
    only80.volume = "8,0";
    ASSERT_TRUE(ingest::ingestFile(
        ingest::Format::Blktrace,
        std::string(EMMCSIM_TEST_DATA_DIR) + "/fixture_blktrace.txt",
        only80, out, st, err))
        << err;
    EXPECT_EQ(st.kept, 3u);
    EXPECT_EQ(st.droppedVolume, 1u);
}

TEST(IngestFixtures, Biosnoop)
{
    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ASSERT_TRUE(ingest::ingestFile(
        ingest::Format::Biosnoop,
        std::string(EMMCSIM_TEST_DATA_DIR) + "/fixture_biosnoop.txt", {},
        out, st, err))
        << err;
    EXPECT_EQ(st.parsed, 4u);
    EXPECT_EQ(st.kept, 4u);
    EXPECT_EQ(st.reads, 1u);
    EXPECT_EQ(st.writes, 3u);
    EXPECT_EQ(st.volumesSeen, 2u);
    EXPECT_EQ(out.validate(), "");
}

TEST(IngestFixtures, Alibaba)
{
    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ASSERT_TRUE(ingest::ingestFile(
        ingest::Format::Alibaba,
        std::string(EMMCSIM_TEST_DATA_DIR) + "/fixture_alibaba.csv", {},
        out, st, err))
        << err;
    EXPECT_EQ(st.parsed, 4u);
    EXPECT_EQ(st.kept, 4u);
    EXPECT_EQ(st.volumesSeen, 2u);
    EXPECT_EQ(st.spanNs, 2'000'000); // 100000us .. 102000us
    EXPECT_EQ(out.validate(), "");
}

TEST(IngestFixtures, Tencent)
{
    trace::Trace out;
    ingest::IngestStats st;
    std::string err;
    ASSERT_TRUE(ingest::ingestFile(
        ingest::Format::Tencent,
        std::string(EMMCSIM_TEST_DATA_DIR) + "/fixture_tencent.csv", {},
        out, st, err))
        << err;
    EXPECT_EQ(st.parsed, 4u);
    EXPECT_EQ(st.kept, 4u);
    EXPECT_EQ(st.reads, 1u);
    EXPECT_EQ(st.writes, 3u);
    EXPECT_EQ(st.spanNs, 1'000'000'000);
    EXPECT_EQ(out.validate(), "");
}
