/**
 * @file
 * Trace container and serialization tests.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

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

/**
 * Load @p text through both text loaders: Trace::tryLoad on a
 * stringstream and a TextTraceSource drained from the same bytes on
 * disk. They share one line reader, so each must report the same
 * TraceLoadError (line and reason); that error is returned.
 */
TraceLoadError
loadBoth(const std::string &text)
{
    std::stringstream ss(text);
    Trace t;
    TraceLoadError err;
    const bool loaded = Trace::tryLoad(ss, t, err);
    EXPECT_EQ(loaded, err.ok());

    // Unique per test: ctest runs the test binaries in parallel.
    const std::string path =
        testing::TempDir() + "/loadboth_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".trace";
    std::ofstream(path, std::ios::binary) << text;
    TextTraceSource src(path);
    std::vector<TraceRecord> streamed;
    TraceRecord buf[8];
    while (std::size_t n = src.next(buf, 8))
        streamed.insert(streamed.end(), buf, buf + n);
    EXPECT_EQ(src.error().line, err.line);
    EXPECT_EQ(src.error().reason, err.reason);
    if (loaded) {
        EXPECT_EQ(src.name(), t.name());
        EXPECT_EQ(streamed.size(), t.size());
    }
    return err;
}

Trace
sampleTrace()
{
    Trace t("Sample");
    t.push(rec(0, 0, 1, OpType::Read));
    t.push(rec(1000, 8, 4, OpType::Write));
    t.push(rec(5000, 0, 2, OpType::Write));
    return t;
}

} // namespace

TEST(TraceRecord, DerivedFields)
{
    TraceRecord r = rec(10, 5, 3, OpType::Write);
    EXPECT_TRUE(r.isWrite());
    EXPECT_EQ(r.sizeUnits(), 3u);
    EXPECT_EQ(r.firstUnit().value(), 5);
    EXPECT_EQ(r.endSector().value(), (5 + 3) * sim::kSectorsPerUnit);
    EXPECT_FALSE(r.replayed());
}

TEST(TraceRecord, TimingAccessors)
{
    TraceRecord r = rec(100, 0, 1, OpType::Read);
    r.serviceStart = 150;
    r.finish = 400;
    EXPECT_TRUE(r.replayed());
    EXPECT_EQ(r.responseTime(), 300);
    EXPECT_EQ(r.serviceTime(), 250);
}

TEST(Trace, AggregateQueries)
{
    Trace t = sampleTrace();
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.totalBytes().value(), 7 * sim::kUnitBytes);
    EXPECT_EQ(t.writtenBytes().value(), 6 * sim::kUnitBytes);
    EXPECT_EQ(t.writeCount(), 2u);
    EXPECT_EQ(t.maxRequestBytes().value(), 4 * sim::kUnitBytes);
    EXPECT_EQ(t.duration(), 5000);
}

TEST(Trace, DurationIncludesReplayFinish)
{
    Trace t = sampleTrace();
    t[2].serviceStart = 5000;
    t[2].finish = 9000;
    EXPECT_EQ(t.duration(), 9000);
}

TEST(Trace, ValidateAcceptsGoodTrace)
{
    EXPECT_EQ(sampleTrace().validate(), "");
}

TEST(Trace, ValidateCatchesUnsorted)
{
    Trace t = sampleTrace();
    t[2].arrival = 1; // now out of order
    EXPECT_NE(t.validate().find("not sorted"), std::string::npos);
}

TEST(Trace, ValidateCatchesMisalignment)
{
    Trace t = sampleTrace();
    t[0].sizeBytes = emmcsim::units::Bytes{1000};
    EXPECT_NE(t.validate().find("4KB-aligned"), std::string::npos);
    Trace t2 = sampleTrace();
    t2[0].lbaSector = emmcsim::units::Lba{1};
    EXPECT_NE(t2.validate().find("lba"), std::string::npos);
}

TEST(Trace, ValidateCatchesBadTimestamps)
{
    Trace t = sampleTrace();
    t[0].serviceStart = 10;
    t[0].finish = 5;
    EXPECT_NE(t.validate().find("timestamps"), std::string::npos);
}

TEST(Trace, SortByArrivalIsStable)
{
    Trace t;
    t.records().push_back(rec(100, 1, 1, OpType::Read));
    t.records().push_back(rec(50, 2, 1, OpType::Read));
    t.records().push_back(rec(100, 3, 1, OpType::Read));
    t.sortByArrival();
    EXPECT_EQ(t[0].firstUnit().value(), 2);
    EXPECT_EQ(t[1].firstUnit().value(), 1);
    EXPECT_EQ(t[2].firstUnit().value(), 3);
}

TEST(TraceDeath, PushOutOfOrderPanics)
{
    Trace t = sampleTrace();
    EXPECT_DEATH(t.push(rec(10, 0, 1, OpType::Read)), "arrival order");
}

TEST(TraceIo, RoundTripWithoutTimestamps)
{
    Trace t = sampleTrace();
    std::stringstream ss;
    t.save(ss);
    Trace back = Trace::load(ss);
    EXPECT_EQ(back.name(), "Sample");
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].arrival, t[i].arrival);
        EXPECT_EQ(back[i].lbaSector, t[i].lbaSector);
        EXPECT_EQ(back[i].sizeBytes, t[i].sizeBytes);
        EXPECT_EQ(back[i].op, t[i].op);
        EXPECT_FALSE(back[i].replayed());
    }
}

TEST(TraceIo, RoundTripWithTimestamps)
{
    Trace t = sampleTrace();
    for (std::size_t i = 0; i < t.size(); ++i) {
        t[i].serviceStart = t[i].arrival + 10;
        t[i].finish = t[i].arrival + 500;
    }
    std::stringstream ss;
    t.save(ss);
    Trace back = Trace::load(ss);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].serviceStart, t[i].serviceStart);
        EXPECT_EQ(back[i].finish, t[i].finish);
    }
}

TEST(TraceIo, LoadSkipsCommentsAndBlankLines)
{
    std::stringstream ss;
    ss << "# emmctrace v1\n# name: X\n\n0 0 4096 R\n\n# trailing\n";
    Trace t = Trace::load(ss);
    EXPECT_EQ(t.name(), "X");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_FALSE(t[0].isWrite());
}

TEST(TraceIo, LoadSortsUnorderedInput)
{
    std::stringstream ss;
    ss << "500 0 4096 W\n100 8 4096 R\n";
    Trace t = Trace::load(ss);
    EXPECT_EQ(t[0].arrival, 100);
    EXPECT_EQ(t[1].arrival, 500);
}

TEST(TraceIo, LowercaseOpsAccepted)
{
    std::stringstream ss;
    ss << "0 0 4096 r\n10 0 4096 w\n";
    Trace t = Trace::load(ss);
    EXPECT_FALSE(t[0].isWrite());
    EXPECT_TRUE(t[1].isWrite());
}

TEST(TraceIo, FileRoundTrip)
{
    Trace t = sampleTrace();
    const std::string path = testing::TempDir() + "/trace_io_test.txt";
    t.saveFile(path);
    Trace back = Trace::loadFile(path);
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), "Sample");
}

TEST(TraceIoErrors, TryLoadAcceptsGoodInput)
{
    std::stringstream ss;
    ss << "# name: Y\n0 0 4096 R\n10 8 4096 W 12 900\n";
    Trace t;
    TraceLoadError err;
    ASSERT_TRUE(Trace::tryLoad(ss, t, err));
    EXPECT_TRUE(err.ok());
    EXPECT_EQ(err.message(), "");
    EXPECT_EQ(t.name(), "Y");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_TRUE(t[1].replayed());
}

TEST(TraceIoErrors, MalformedRecordReportsLineAndReason)
{
    const TraceLoadError err = loadBoth("0 0 4096 R\n1000 zero 4096 W\n");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.line, 2u);
    EXPECT_NE(err.reason.find("malformed record"), std::string::npos);
    EXPECT_NE(err.message().find("line 2: "), std::string::npos);
}

TEST(TraceIoErrors, BadOpReportsTheOffendingCharacter)
{
    const TraceLoadError err = loadBoth("0 0 4096 X\n");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.line, 1u);
    EXPECT_NE(err.reason.find("bad op 'X'"), std::string::npos);
}

TEST(TraceIoErrors, NegativeArrivalRejected)
{
    const TraceLoadError err = loadBoth("-5 0 4096 R\n");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.line, 1u);
    EXPECT_NE(err.reason.find("negative arrival"), std::string::npos);
}

TEST(TraceIoErrors, LoneServiceTimestampRejected)
{
    // 5 tokens: a service start without its finish partner.
    const TraceLoadError err = loadBoth("# header\n\n0 0 4096 R 100\n");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.line, 3u) << "comments and blanks still count";
    EXPECT_NE(err.reason.find("without a finish"), std::string::npos);
}

TEST(TraceIoErrors, TrailingGarbageRejected)
{
    const TraceLoadError err = loadBoth("0 0 4096 R 100 200 junk\n");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.line, 1u);
    EXPECT_NE(err.reason.find("trailing garbage"), std::string::npos);
    EXPECT_NE(err.reason.find("junk"), std::string::npos);
}

TEST(TraceIoErrors, SignedAndWrappedNumbersRejected)
{
    // LBA and size are unsigned decimals (core::parseU64), timestamps
    // signed decimals without '+'. A lenient stream read wrapped
    // "-4096" to a size near 2^64 and took "+16" as 16.
    for (const char *bad : {"0 8 -4096 W", "0 -8 4096 W", "0 +16 4096 R",
                            "0 8 4096 W +5 9"}) {
        const TraceLoadError err =
            loadBoth(std::string("0 0 4096 R\n") + bad + "\n");
        EXPECT_FALSE(err.ok()) << bad;
        EXPECT_EQ(err.line, 2u) << bad;
        EXPECT_NE(err.message().find("line 2: "), std::string::npos)
            << bad;
    }
}

TEST(TraceIoErrors, UnopenableFileReportsPath)
{
    Trace t;
    TraceLoadError err;
    EXPECT_FALSE(
        Trace::tryLoadFile("/nonexistent/path/trace.txt", t, err));
    EXPECT_EQ(err.line, 0u);
    EXPECT_NE(err.reason.find("cannot open"), std::string::npos);
    // Without a line number the message is just the reason.
    EXPECT_EQ(err.message(), err.reason);
}

TEST(TraceIoErrors, FailedLoadLeavesOutputUntouched)
{
    Trace t = sampleTrace();
    std::stringstream ss;
    ss << "0 0 4096 R\nbroken\n";
    TraceLoadError err;
    EXPECT_FALSE(Trace::tryLoad(ss, t, err));
    EXPECT_EQ(t.size(), 3u) << "partial parse must not leak into out";
    EXPECT_EQ(t.name(), "Sample");
}

TEST(TraceIoErrors, CrlfLinesParseCleanly)
{
    // CRLF input used to embed the '\r' in the parsed name and feed
    // "4096\r" to the size parser; both must strip cleanly.
    const std::string text = "# emmctrace v1\r\n# name: Win\r\n"
                             "# records: 1\r\n0 0 4096 R\r\n";
    EXPECT_TRUE(loadBoth(text).ok());
    std::stringstream ss(text);
    Trace t;
    TraceLoadError err;
    ASSERT_TRUE(Trace::tryLoad(ss, t, err)) << err.message();
    EXPECT_EQ(t.name(), "Win");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].sizeBytes.value(), 4096u);
}

TEST(TraceIoErrors, ZeroSizeRecordRejectedAtLoad)
{
    const TraceLoadError err = loadBoth("0 0 0 R\n");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.line, 1u);
    EXPECT_NE(err.reason.find("zero size"), std::string::npos);
}

TEST(TraceIoErrors, MisalignedSizeRejectedAtLoad)
{
    const TraceLoadError err = loadBoth("0 0 1000 R\n");
    EXPECT_FALSE(err.ok());
    EXPECT_NE(err.reason.find("4KB-aligned"), std::string::npos);
}

TEST(TraceIoErrors, MisalignedLbaRejectedAtLoad)
{
    const TraceLoadError err = loadBoth("0 3 4096 R\n");
    EXPECT_FALSE(err.ok());
    EXPECT_NE(err.reason.find("lba"), std::string::npos);
}

TEST(TraceIoErrors, InvertedReplayTimestampsRejectedAtLoad)
{
    const TraceLoadError err = loadBoth("100 0 4096 R 90 80\n");
    EXPECT_FALSE(err.ok());
    EXPECT_NE(err.reason.find("timestamps"), std::string::npos);
}

TEST(TraceIoErrors, RecordCountMismatchRejected)
{
    // A declared count catches truncation that leaves whole lines
    // intact (e.g. a partial download losing the tail).
    const TraceLoadError err =
        loadBoth("# records: 3\n0 0 4096 R\n10 0 4096 W\n");
    EXPECT_FALSE(err.ok());
    EXPECT_NE(err.reason.find("record count mismatch"),
              std::string::npos);
    EXPECT_NE(err.reason.find("declares 3"), std::string::npos);
    EXPECT_NE(err.reason.find("has 2"), std::string::npos);
}

TEST(TraceIoErrors, RecordCountMatchAccepted)
{
    const TraceLoadError err =
        loadBoth("# records: 2\n0 0 4096 R\n10 0 4096 W\n");
    EXPECT_TRUE(err.ok()) << err.message();
}

TEST(TraceIoErrors, LateHeaderLinesCountInBothLoaders)
{
    // Header lines are honoured wherever they appear: a "# records:"
    // after the records still cross-checks the count.
    const TraceLoadError err =
        loadBoth("0 0 4096 R\n# name: Late\n# records: 2\n");
    EXPECT_EQ(err.line, 0u);
    EXPECT_NE(err.reason.find("declares 2"), std::string::npos);
    EXPECT_TRUE(
        loadBoth("0 0 4096 R\n# name: Late\n# records: 1\n").ok());
}

TEST(TraceIoErrors, StreamIoErrorReported)
{
    // A stream that dies mid-read (badbit) must not be mistaken for
    // clean EOF. tryLoad checks is.bad() after the loop.
    std::stringstream ss;
    ss << "0 0 4096 R\n";
    ss.setstate(std::ios::badbit);
    Trace t;
    TraceLoadError err;
    EXPECT_FALSE(Trace::tryLoad(ss, t, err));
    EXPECT_NE(err.reason.find("I/O error"), std::string::npos);
}

TEST(TraceIoDeath, MalformedLineFatal)
{
    std::stringstream ss;
    ss << "0 zero 4096 R\n";
    EXPECT_DEATH(Trace::load(ss), "malformed");
}

TEST(TraceIoDeath, BadOpFatal)
{
    std::stringstream ss;
    ss << "0 0 4096 X\n";
    EXPECT_DEATH(Trace::load(ss), "bad op");
}

TEST(TraceIoDeath, MissingFileFatal)
{
    EXPECT_DEATH(Trace::loadFile("/nonexistent/path/trace.txt"),
                 "cannot open");
}
