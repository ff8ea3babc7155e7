/**
 * @file
 * Sudden-power-off recovery tests on a tiny FTL: acknowledged writes
 * survive, torn in-flight programs roll back, newest-copy-wins
 * ordering via OOB sequence stamps, and the recovery-time cost model
 * (DESIGN.md §13).
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.hh"
#include "ftl/ftl.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

constexpr flash::Lpn
L(std::int64_t v)
{
    return flash::Lpn{v};
}

flash::Geometry
tinyGeom()
{
    flash::Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 2;
    g.pagesPerBlock = 4;
    g.pools = {{4096, 8}};
    return g;
}

flash::Timing
tinyTiming()
{
    flash::Timing t;
    t.pools = {flash::Timing::page4k()};
    return t;
}

struct SpoFixture
{
    flash::Geometry geom = tinyGeom();
    flash::Timing timing = tinyTiming();
    flash::FlashArray array;
    Ftl ftl;

    SpoFixture() : array(geom, timing, true), ftl(array, makeCfg()) {}

    static FtlConfig
    makeCfg()
    {
        FtlConfig cfg;
        cfg.opRatio = 0.25;
        cfg.gc.hardFreeBlocks = 1;
        cfg.gc.softFreeBlocks = 2;
        return cfg;
    }

    /** Write one unit and return the program's completion time. */
    sim::Time
    writeUnit(std::int64_t lpn, sim::Time earliest = 0)
    {
        WriteResult r = ftl.writeGroup(0, L(lpn), 1, earliest);
        EXPECT_TRUE(r.accepted);
        return r.done;
    }

    /** Post-recovery invariants must all hold. */
    void
    expectCheckersClean()
    {
        auto run = [&](const char *name, auto checker) {
            check::CheckContext ctx(name);
            checker(ctx);
            EXPECT_EQ(ctx.failures(), 0u)
                << name << ": "
                << (ctx.violations().empty() ? std::string("(no detail)")
                                             : ctx.violations().front());
        };
        run("mapping-bijection", [&](check::CheckContext &c) {
            check::checkMappingBijection(ftl, c);
        });
        run("unit-conservation", [&](check::CheckContext &c) {
            check::checkUnitConservation(ftl, c);
        });
        run("journal-accounting", [&](check::CheckContext &c) {
            check::checkJournalAccounting(ftl, c);
        });
        run("pageseq-consistency", [&](check::CheckContext &c) {
            check::checkPageSeqConsistency(ftl, c);
        });
        run("array-accounting", [&](check::CheckContext &c) {
            check::checkArrayAccounting(array, c);
        });
    }
};

} // namespace

TEST(SpoRecovery, AcknowledgedWritesSurviveTheCrash)
{
    SpoFixture f;
    std::vector<MapEntry> before;
    for (std::int64_t l = 0; l < 6; ++l)
        f.writeUnit(l);
    const sim::Time crash = 1'000'000'000; // all programs long done
    for (std::int64_t l = 0; l < 6; ++l)
        before.push_back(f.ftl.map().lookup(L(l)));

    RecoveryReport rep = f.ftl.powerFailAndRecover(crash);

    EXPECT_EQ(rep.tornPages, 0u);
    EXPECT_EQ(rep.recoveredUnits, 6u);
    for (std::int64_t l = 0; l < 6; ++l) {
        ASSERT_TRUE(f.ftl.map().mapped(L(l))) << "lpn " << l;
        EXPECT_EQ(f.ftl.map().lookup(L(l)), before[static_cast<
            std::size_t>(l)]) << "lpn " << l;
    }
    f.expectCheckersClean();
}

TEST(SpoRecovery, InFlightProgramIsTornAndRolledBack)
{
    SpoFixture f;
    const sim::Time done0 = f.writeUnit(0);
    // Second write issued at t=done0 completes later; crash before it.
    const sim::Time done1 = f.writeUnit(1, done0);
    ASSERT_GT(done1, done0);
    const sim::Time crash = done1 - 1;

    RecoveryReport rep = f.ftl.powerFailAndRecover(crash);

    EXPECT_EQ(rep.tornPages, 1u);
    // The unacknowledged write is gone; the acknowledged one is not.
    EXPECT_TRUE(f.ftl.map().mapped(L(0)));
    EXPECT_FALSE(f.ftl.map().mapped(L(1)));
    f.expectCheckersClean();
}

TEST(SpoRecovery, NewestCopyWinsByOobSequence)
{
    SpoFixture f;
    f.writeUnit(7);
    const MapEntry old_entry = f.ftl.map().lookup(L(7));
    f.writeUnit(7); // overwrite: older copy goes stale
    const MapEntry new_entry = f.ftl.map().lookup(L(7));
    ASSERT_NE(old_entry, new_entry);

    RecoveryReport rep = f.ftl.powerFailAndRecover(1'000'000'000);

    EXPECT_GE(rep.staleCopies, 1u);
    EXPECT_EQ(f.ftl.map().lookup(L(7)), new_entry);
    f.expectCheckersClean();
}

TEST(SpoRecovery, InterruptedEraseIsReRun)
{
    SpoFixture f;
    // Enough overwrites to trigger GC erases on the tiny device.
    sim::Time t = 0;
    for (int round = 0; round < 8; ++round)
        for (std::int64_t l = 0; l < 8; ++l)
            t = f.writeUnit(l, t);
    const sim::Time last_erase = f.ftl.journal().lastEraseDone();
    ASSERT_GT(last_erase, 0) << "workload never triggered an erase";

    RecoveryReport rep = f.ftl.powerFailAndRecover(last_erase - 1);

    EXPECT_EQ(rep.reErasedBlocks, 1u);
    EXPECT_EQ(rep.reEraseTime, f.array.timing().eraseLatency);
    f.expectCheckersClean();
}

TEST(SpoRecovery, CostModelSumsItsComponents)
{
    SpoFixture f;
    for (std::int64_t l = 0; l < 5; ++l)
        f.writeUnit(l);

    RecoveryReport rep = f.ftl.powerFailAndRecover(1'000'000'000);

    EXPECT_GT(rep.checkpointPagesRead, 0u);
    EXPECT_GT(rep.checkpointReadTime, 0);
    EXPECT_GT(rep.checkpointWriteTime, 0);
    EXPECT_EQ(rep.totalTime, rep.checkpointReadTime +
                                 rep.journalReplayTime + rep.scanTime +
                                 rep.reEraseTime +
                                 rep.checkpointWriteTime);
}

TEST(SpoRecovery, SecondCrashAfterRecoveryIsStillConsistent)
{
    SpoFixture f;
    for (std::int64_t l = 0; l < 6; ++l)
        f.writeUnit(l);
    f.ftl.powerFailAndRecover(1'000'000'000);
    for (std::int64_t l = 2; l < 4; ++l)
        f.writeUnit(l);

    RecoveryReport rep = f.ftl.powerFailAndRecover(2'000'000'000);

    EXPECT_EQ(rep.recoveredUnits, 6u);
    for (std::int64_t l = 0; l < 6; ++l)
        EXPECT_TRUE(f.ftl.map().mapped(L(l))) << "lpn " << l;
    f.expectCheckersClean();
}
