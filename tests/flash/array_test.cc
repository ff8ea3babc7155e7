/**
 * @file
 * Unit tests for FlashArray timing: resource reservation on channels
 * and array units, Table V latencies, and op statistics.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flash/array.hh"
#include "sim/types.hh"

using namespace emmcsim;
using namespace emmcsim::flash;

namespace {

Geometry
geom2x2(std::vector<PoolConfig> pools = {PoolConfig{4096, 8}})
{
    Geometry g;
    g.channels = 2;
    g.chipsPerChannel = 1;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    g.pagesPerBlock = 16;
    g.pools = std::move(pools);
    return g;
}

Timing
timing4k()
{
    Timing t;
    t.pools = {Timing::page4k()};
    return t;
}

PageAddr
addrAtPlane(const Geometry &g, std::uint32_t plane, std::uint32_t pool = 0,
            std::uint32_t block = 0, std::uint32_t page = 0)
{
    PageAddr a = addrFromPlaneLinear(g, plane);
    a.pool = pool;
    a.block = block;
    a.page = page;
    return a;
}

} // namespace

TEST(FlashArrayTiming, ReadLatencyBreakdown)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);

    OpResult r = arr.read(addrAtPlane(g, 0), 0);
    EXPECT_EQ(r.start, 0);
    // array read + cmd overhead + 4KB transfer
    sim::Time expect = t.pools[0].readLatency + t.pageCmdOverhead +
                       t.transferTime(4096);
    EXPECT_EQ(r.done, expect);
}

TEST(FlashArrayTiming, PartialTransferShortensRead)
{
    Geometry g = geom2x2({PoolConfig{8192, 8}});
    Timing t;
    t.pools = {Timing::page8k()};
    FlashArray arr(g, t, true);

    OpResult full = arr.read(addrAtPlane(g, 0), 0);
    FlashArray arr2(g, t, true);
    OpResult half = arr2.read(addrAtPlane(g, 0), 0, emmcsim::units::Bytes{4096});
    EXPECT_LT(half.done, full.done);
    EXPECT_EQ(full.done - half.done, t.transferTime(4096));
}

TEST(FlashArrayTiming, TransferClampedToPageSize)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);
    OpResult a = arr.read(addrAtPlane(g, 0), 0, emmcsim::units::Bytes{1 << 20});
    FlashArray arr2(g, t, true);
    OpResult b = arr2.read(addrAtPlane(g, 0), 0, emmcsim::units::Bytes{4096});
    EXPECT_EQ(a.done, b.done);
}

TEST(FlashArrayTiming, ProgramLatencyBreakdown)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);

    OpResult r = arr.program(addrAtPlane(g, 0), 0);
    sim::Time expect = t.pageCmdOverhead + t.transferTime(4096) +
                       t.pools[0].programLatency;
    EXPECT_EQ(r.done, expect);
}

TEST(FlashArrayTiming, EraseLatency)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);
    OpResult r = arr.erase(addrAtPlane(g, 0), 0);
    EXPECT_EQ(r.done, t.pageCmdOverhead + t.eraseLatency);
}

TEST(FlashArrayTiming, SamePlaneOpsSerialize)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);

    OpResult a = arr.read(addrAtPlane(g, 0), 0);
    OpResult b = arr.read(addrAtPlane(g, 0, 0, 0, 1), 0);
    // The second read's array phase waits for the first.
    EXPECT_GE(b.done - a.done, 0);
    EXPECT_GE(b.done, t.pools[0].readLatency * 2);
}

TEST(FlashArrayTiming, DifferentPlanesOverlapWithMultiplane)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);

    // Planes 0 and 1 share a die but multiplane lets arrays overlap;
    // the channel still serializes the two transfers.
    OpResult a = arr.read(addrAtPlane(g, 0), 0);
    OpResult b = arr.read(addrAtPlane(g, 1), 0);
    sim::Time xfer = t.pageCmdOverhead + t.transferTime(4096);
    EXPECT_EQ(a.done, t.pools[0].readLatency + xfer);
    EXPECT_EQ(b.done, a.done + xfer);
}

TEST(FlashArrayTiming, SameDieSerializesWithoutMultiplane)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, false);

    OpResult a = arr.read(addrAtPlane(g, 0), 0);
    (void)a;
    OpResult b = arr.read(addrAtPlane(g, 1), 0); // same die
    // Second array phase starts only after the first finishes.
    EXPECT_GE(b.done, 2 * t.pools[0].readLatency);

    FlashArray arr2(g, t, false);
    arr2.read(addrAtPlane(g, 0), 0);
    OpResult c = arr2.read(addrAtPlane(g, 2), 0); // other die, same ch
    EXPECT_LT(c.done, b.done);
}

TEST(FlashArrayTiming, DifferentChannelsFullyParallel)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);

    OpResult a = arr.read(addrAtPlane(g, 0), 0); // channel 0
    OpResult b = arr.read(addrAtPlane(g, 4), 0); // channel 1
    EXPECT_EQ(a.done, b.done);
}

TEST(FlashArrayTiming, EarliestStartRespected)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);
    OpResult r = arr.read(addrAtPlane(g, 0), sim::milliseconds(5));
    EXPECT_EQ(r.start, sim::milliseconds(5));
}

TEST(FlashArrayTiming, CopybackSkipsDataTransfer)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);
    OpResult cb = arr.copybackRead(addrAtPlane(g, 0), 0);
    EXPECT_EQ(cb.done, t.pageCmdOverhead + t.pools[0].readLatency);

    FlashArray arr2(g, t, true);
    OpResult cp = arr2.copybackProgram(addrAtPlane(g, 0), 0);
    EXPECT_EQ(cp.done, t.pageCmdOverhead + t.pools[0].programLatency);
}

TEST(FlashArrayTiming, Table5LatenciesApplied)
{
    EXPECT_EQ(Timing::page4k().readLatency, sim::microseconds(160));
    EXPECT_EQ(Timing::page4k().programLatency, sim::microseconds(1385));
    EXPECT_EQ(Timing::page8k().readLatency, sim::microseconds(244));
    EXPECT_EQ(Timing::page8k().programLatency, sim::microseconds(1491));
    EXPECT_EQ(Timing{}.eraseLatency, sim::microseconds(3800));
}

TEST(FlashArrayStats, CountsPerPool)
{
    Geometry g = geom2x2({PoolConfig{4096, 4}, PoolConfig{8192, 4}});
    Timing t;
    t.pools = {Timing::page4k(), Timing::page8k()};
    FlashArray arr(g, t, true);

    arr.read(addrAtPlane(g, 0, 0), 0);
    arr.program(addrAtPlane(g, 0, 1), 0);
    arr.erase(addrAtPlane(g, 1, 1), 0);

    EXPECT_EQ(arr.stats(0).reads, 1u);
    EXPECT_EQ(arr.stats(0).programs, 0u);
    EXPECT_EQ(arr.stats(1).programs, 1u);
    EXPECT_EQ(arr.stats(1).erases, 1u);
    EXPECT_EQ(arr.totalStats().reads, 1u);
    EXPECT_EQ(arr.totalStats().programs, 1u);
    EXPECT_EQ(arr.totalStats().erases, 1u);
    EXPECT_EQ(arr.totalStats().bytesRead, 4096u);
    EXPECT_EQ(arr.totalStats().bytesProgrammed, 8192u);
}

TEST(FlashArrayStats, AllIdleAtTracksLatestResource)
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    FlashArray arr(g, t, true);
    EXPECT_EQ(arr.allIdleAt(), 0);
    OpResult r = arr.program(addrAtPlane(g, 3), 0);
    EXPECT_EQ(arr.allIdleAt(), r.done);
}

TEST(FlashArrayTiming, TransferTimeMatchesBandwidth)
{
    Timing t;
    t.channelMBps = 200.0;
    // 200 MB/s => 4096 bytes in 20.48 us.
    EXPECT_NEAR(static_cast<double>(t.transferTime(4096)), 20480.0, 1.0);
}

/** Parameterized: throughput ordering of page sizes for large
 * transfers (8KB pages move more data per array op). */
class ArrayPageSizeSweep
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ArrayPageSizeSweep, BackToBackProgramsRespectArrayLatency)
{
    const std::uint32_t page_bytes = GetParam();
    Geometry g = geom2x2({PoolConfig{page_bytes, 8}});
    Timing t;
    t.pools = {page_bytes == 4096 ? Timing::page4k()
                                  : Timing::page8k()};
    FlashArray arr(g, t, true);

    sim::Time done = 0;
    const int n = 16;
    for (int i = 0; i < n; ++i) {
        OpResult r = arr.program(
            addrAtPlane(g, 0, 0, 0, static_cast<std::uint32_t>(i)), 0);
        done = r.done;
    }
    // All to one plane: total time >= n * programLatency.
    EXPECT_GE(done, n * t.pools[0].programLatency);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, ArrayPageSizeSweep,
                         ::testing::Values(4096u, 8192u));

// ---------------------------------------------------------------------
// One test per operation kind: every OpResult field, the counter the
// op bumps, and the op hook's view, including the fault branches.
// ---------------------------------------------------------------------

namespace {

/** An array with an attached, enabled but quiet injector. */
struct OpsRig
{
    Geometry g = geom2x2();
    Timing t = timing4k();
    fault::FaultInjector injector;
    FlashArray arr;
    std::vector<std::pair<OpKind, OpResult>> hooked;

    explicit OpsRig(fault::FaultConfig cfg = quiet())
        : injector(cfg), arr(g, t, true)
    {
        arr.attachFaultInjector(&injector);
        arr.setOpHook([this](OpKind k, const PageAddr &, const OpResult &r) {
            hooked.emplace_back(k, r);
        });
    }

    static fault::FaultConfig
    quiet()
    {
        fault::FaultConfig c;
        c.enabled = true; // baseRber 0 and no fail probabilities
        return c;
    }
};

void
expectOp(const OpResult &r, sim::Time start, sim::Time done,
         OpStatus status, std::uint32_t retries, sim::Time bus,
         sim::Time cell, sim::Time retry)
{
    EXPECT_EQ(r.start, start);
    EXPECT_EQ(r.done, done);
    EXPECT_EQ(r.status, status);
    EXPECT_EQ(r.retries, retries);
    EXPECT_EQ(r.busTime, bus);
    EXPECT_EQ(r.cellTime, cell);
    EXPECT_EQ(r.retryTime, retry);
}

void
expectStats(const ArrayStats &s, std::uint64_t reads,
            std::uint64_t programs, std::uint64_t erases,
            std::uint64_t cb_reads, std::uint64_t cb_programs,
            std::uint64_t bytes_read, std::uint64_t bytes_programmed)
{
    EXPECT_EQ(s.reads, reads);
    EXPECT_EQ(s.programs, programs);
    EXPECT_EQ(s.erases, erases);
    EXPECT_EQ(s.copybackReads, cb_reads);
    EXPECT_EQ(s.copybackPrograms, cb_programs);
    EXPECT_EQ(s.bytesRead, bytes_read);
    EXPECT_EQ(s.bytesProgrammed, bytes_programmed);
}

void
expectHooked(const OpsRig &rig, OpKind kind, const OpResult &r)
{
    ASSERT_EQ(rig.hooked.size(), 1u);
    EXPECT_EQ(rig.hooked[0].first, kind);
    EXPECT_EQ(rig.hooked[0].second.done, r.done);
    EXPECT_EQ(rig.hooked[0].second.status, r.status);
}

constexpr sim::Time kAt = sim::microseconds(7);

} // namespace

TEST(FlashArrayOps, ReadSensesThenTransfers)
{
    OpsRig rig;
    const sim::Time bus = rig.t.pageCmdOverhead + rig.t.transferTime(4096);
    const sim::Time cell = rig.t.pools[0].readLatency;
    OpResult r = rig.arr.read(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + cell + bus, OpStatus::Ok, 0, bus, cell, 0);
    expectStats(rig.arr.stats(0), 1, 0, 0, 0, 0, 4096, 0);
    expectHooked(rig, OpKind::Read, r);
}

TEST(FlashArrayOps, ForcedReadFailureRunsTheWholeLadder)
{
    OpsRig rig;
    rig.injector.forceReadFailures(1);
    const auto &fc = rig.injector.config();
    const sim::Time retry = fc.readRetryLevels * fc.readRetryLatency;
    const sim::Time bus = rig.t.pageCmdOverhead + rig.t.transferTime(4096);
    const sim::Time cell = rig.t.pools[0].readLatency + retry;
    OpResult r = rig.arr.read(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + cell + bus, OpStatus::Uncorrectable,
             fc.readRetryLevels, bus, cell, retry);
    EXPECT_FALSE(r.ok());
    expectStats(rig.arr.stats(0), 1, 0, 0, 0, 0, 4096, 0);
    expectHooked(rig, OpKind::Read, r);
}

TEST(FlashArrayOps, OneRetryLevelCorrectsARead)
{
    // RBER twice the ECC threshold fails the default read for certain
    // (the huge shape makes pFail exactly 1) and passes level 1
    // outright (its threshold is three times higher).
    fault::FaultConfig c = OpsRig::quiet();
    c.baseRber = 2 * c.eccRberThreshold;
    c.retryThresholdGain = 3.0;
    c.failShape = 1e9;
    OpsRig rig(c);
    const sim::Time bus = rig.t.pageCmdOverhead + rig.t.transferTime(4096);
    const sim::Time cell =
        rig.t.pools[0].readLatency + c.readRetryLatency;
    OpResult r = rig.arr.read(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + cell + bus, OpStatus::Corrected, 1, bus, cell,
             c.readRetryLatency);
    EXPECT_TRUE(r.ok());
    expectStats(rig.arr.stats(0), 1, 0, 0, 0, 0, 4096, 0);
}

TEST(FlashArrayOps, ForcedCopybackReadFailureSendsOnlyTheCommand)
{
    OpsRig rig;
    rig.injector.forceReadFailures(1);
    const auto &fc = rig.injector.config();
    const sim::Time retry = fc.readRetryLevels * fc.readRetryLatency;
    const sim::Time bus = rig.t.pageCmdOverhead;
    const sim::Time cell = rig.t.pools[0].readLatency + retry;
    OpResult r = rig.arr.copybackRead(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + bus + cell, OpStatus::Uncorrectable,
             fc.readRetryLevels, bus, cell, retry);
    expectStats(rig.arr.stats(0), 0, 0, 0, 1, 0, 0, 0);
    expectHooked(rig, OpKind::CopybackRead, r);
}

TEST(FlashArrayOps, ForcedProgramFailureKeepsProgramTiming)
{
    OpsRig rig;
    rig.injector.forceProgramFailures(1);
    const sim::Time bus = rig.t.pageCmdOverhead + rig.t.transferTime(4096);
    const sim::Time cell = rig.t.pools[0].programLatency;
    OpResult r = rig.arr.program(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + bus + cell, OpStatus::ProgramFail, 0, bus, cell,
             0);
    EXPECT_FALSE(r.ok());
    expectStats(rig.arr.stats(0), 0, 1, 0, 0, 0, 0, 4096);
    expectHooked(rig, OpKind::Program, r);
}

TEST(FlashArrayOps, ForcedCopybackProgramFailure)
{
    OpsRig rig;
    rig.injector.forceProgramFailures(1);
    const sim::Time bus = rig.t.pageCmdOverhead;
    const sim::Time cell = rig.t.pools[0].programLatency;
    OpResult r = rig.arr.copybackProgram(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + bus + cell, OpStatus::ProgramFail, 0, bus, cell,
             0);
    expectStats(rig.arr.stats(0), 0, 0, 0, 0, 1, 0, 0);
    expectHooked(rig, OpKind::CopybackProgram, r);
}

TEST(FlashArrayOps, ForcedEraseFailure)
{
    OpsRig rig;
    rig.injector.forceEraseFailures(1);
    const sim::Time bus = rig.t.pageCmdOverhead;
    const sim::Time cell = rig.t.eraseLatency;
    OpResult r = rig.arr.erase(addrAtPlane(rig.g, 0), kAt);
    expectOp(r, kAt, kAt + bus + cell, OpStatus::EraseFail, 0, bus, cell, 0);
    expectStats(rig.arr.stats(0), 0, 0, 1, 0, 0, 0, 0);
    expectHooked(rig, OpKind::Erase, r);
}

TEST(FlashArrayOps, OnlyHostReadsTakeTheArrayFirst)
{
    // Planes 1..3 share channel 0; with multi-plane commands each
    // plane is its own array unit.
    OpsRig rig;
    OpResult p = rig.arr.program(addrAtPlane(rig.g, 1), 0);
    const sim::Time chan_free = p.start + p.busTime;
    // A copyback read needs the channel first, so it waits for it.
    OpResult cb = rig.arr.copybackRead(addrAtPlane(rig.g, 2), 0);
    EXPECT_EQ(cb.start, chan_free);
    EXPECT_EQ(cb.done, chan_free + cb.busTime + cb.cellTime);
    // A host read senses on its idle plane at once and needs the
    // channel only after sensing, by when it is free again.
    OpResult rd = rig.arr.read(addrAtPlane(rig.g, 3), 0);
    EXPECT_EQ(rd.start, 0);
    EXPECT_EQ(rd.done, rd.cellTime + rd.busTime);
}
