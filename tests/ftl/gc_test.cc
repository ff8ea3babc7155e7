/**
 * @file
 * Garbage-collection tests: blocking GC under pressure, data
 * preservation across relocation, idle GC, and wear accounting.
 */

#include <gtest/gtest.h>

#include "ftl/ftl.hh"
#include "ftl/wear.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

/** One plane, one pool, 4 blocks of 4 pages: GC is easy to trigger. */
struct GcRig
{
    flash::Geometry geom;
    flash::Timing timing;
    flash::FlashArray array;
    Ftl ftl;

    GcRig()
        : geom(makeGeom()),
          timing(makeTiming()),
          array(geom, timing, true),
          ftl(array, makeCfg())
    {
    }

    static flash::Geometry
    makeGeom()
    {
        flash::Geometry g;
        g.channels = 1;
        g.chipsPerChannel = 1;
        g.diesPerChip = 1;
        g.planesPerDie = 1;
        g.pagesPerBlock = 4;
        g.pools = {flash::PoolConfig{4096, 4}};
        return g;
    }

    static flash::Timing
    makeTiming()
    {
        flash::Timing t;
        t.pools = {flash::Timing::page4k()};
        return t;
    }

    static FtlConfig
    makeCfg()
    {
        FtlConfig cfg;
        cfg.opRatio = 0.5; // 8 logical units of 16 raw
        cfg.gc.hardFreeBlocks = 1;
        cfg.gc.softFreeBlocks = 3;
        return cfg;
    }

    /**
     * Drive idle-GC steps from @p now, as the device's idle ticks
     * do, until a step finds nothing to do or @p deadline passes.
     * @return Flash time consumed.
     */
    sim::Time
    idleGc(sim::Time now, sim::Time deadline)
    {
        sim::Time t = now;
        while (t < deadline) {
            bool did_work = false;
            const sim::Time done = ftl.idleGcStep(t, did_work);
            if (!did_work)
                break;
            t = done;
        }
        return t - now;
    }
};

} // namespace

TEST(GarbageCollector, TriggersUnderWritePressure)
{
    GcRig rig;
    sim::Time t = 0;
    // Repeatedly overwrite 8 logical units; raw space (16 pages) fills
    // and GC must reclaim stale pages.
    for (int round = 0; round < 10; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    EXPECT_GT(rig.ftl.gcStats().blockingRounds, 0u);
    EXPECT_GT(rig.ftl.gcStats().erasedBlocks, 0u);
}

TEST(GarbageCollector, DataSurvivesRelocation)
{
    GcRig rig;
    sim::Time t = 0;
    for (int round = 0; round < 20; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
        // After each round every logical unit must still resolve to a
        // live physical unit holding its lpn.
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn) {
            ASSERT_TRUE(rig.ftl.map().mapped(lpn));
            const MapEntry &e = rig.ftl.map().lookup(lpn);
            auto &pool = rig.array
                             .plane(static_cast<std::uint32_t>(
                                 e.planeLinear))
                             .pool(e.pool);
            ASSERT_TRUE(pool.unitValid(e.ppn, e.unit));
            ASSERT_EQ(pool.lpnAt(e.ppn, e.unit), lpn);
        }
    }
}

TEST(GarbageCollector, GcConsumesFlashTime)
{
    GcRig rig;
    sim::Time t = 0;
    for (int round = 0; round < 10; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    EXPECT_GT(rig.ftl.gcStats().blockingTime, 0);
}

TEST(GarbageCollector, RelocationCountsUnits)
{
    GcRig rig;
    sim::Time t = 0;
    for (int round = 0; round < 10; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    // Greedy victims of a cyclic overwrite pattern are mostly stale,
    // so relocation traffic stays bounded.
    const GcStats &gs = rig.ftl.gcStats();
    EXPECT_LE(gs.relocatedUnits,
              gs.erasedBlocks * 4u); // at most all pages valid
}

TEST(GarbageCollector, IdleGcRaisesFreeBlocks)
{
    GcRig rig;
    sim::Time t = 0;
    // Dirty the device: fill ~all raw space with overwrites but stop
    // before blocking GC does all the work.
    for (int round = 0; round < 3; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    auto &pool = rig.array.plane(0).pool(0);
    std::uint32_t before = pool.freeBlockCount();
    sim::Time used = rig.idleGc(t, t + sim::seconds(10));
    EXPECT_GT(used, 0);
    EXPECT_GT(rig.ftl.gcStats().idleSteps, 0u);
    EXPECT_GE(pool.freeBlockCount(), before);
}

TEST(GarbageCollector, IdleGcStopsAtSoftThreshold)
{
    GcRig rig;
    // Brand-new device: all blocks free, nothing to collect.
    sim::Time used = rig.idleGc(0, sim::seconds(1));
    EXPECT_EQ(used, 0);
    EXPECT_EQ(rig.ftl.gcStats().idleSteps, 0u);
}

TEST(GarbageCollector, WearStaysBalanced)
{
    GcRig rig;
    sim::Time t = 0;
    for (int round = 0; round < 50; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    // Simple wear leveling (min-erase free-block pick) keeps the
    // erase spread small under uniform churn.
    EXPECT_LE(rig.array.plane(0).pool(0).eraseSpread(), 3u);
}

TEST(GarbageCollectorDeath, ThresholdsValidated)
{
    GcRig rig;
    flash::FlashArray arr(GcRig::makeGeom(), GcRig::makeTiming(), true);
    PageMap map(8);
    BadBlockManager bbm(1, 1, BbmConfig{});
    MetaJournal journal(map, JournalConfig{});
    GcConfig bad;
    bad.hardFreeBlocks = 0;
    EXPECT_DEATH(GarbageCollector(arr, map, bad, bbm, journal),
                 "reserved free block");
    GcConfig inverted;
    inverted.hardFreeBlocks = 4;
    inverted.softFreeBlocks = 2;
    EXPECT_DEATH(GarbageCollector(arr, map, inverted, bbm, journal),
                 "soft GC threshold");
}

TEST(GcVictimPolicy, CostBenefitPrefersOldBlocks)
{
    // Two full blocks with equal valid counts; the older one (written
    // first) must be the cost-benefit victim, while greedy would tie.
    flash::Geometry g = GcRig::makeGeom();
    flash::Timing tm = GcRig::makeTiming();
    flash::FlashArray arr(g, tm, true);
    PageMap map(16);
    GcConfig cfg;
    cfg.hardFreeBlocks = 1;
    cfg.softFreeBlocks = 4;
    cfg.victimPolicy = GcVictimPolicy::CostBenefit;
    BadBlockManager bbm(1, 1, BbmConfig{});
    MetaJournal journal(map, JournalConfig{});
    GarbageCollector gc(arr, map, cfg, bbm, journal);

    auto &bp = arr.plane(0).pool(0);
    // Fill block A (old) and block B (young), then open block C so
    // neither candidate is the active block; one valid unit each.
    std::vector<flash::Ppn> pages;
    for (int i = 0; i < 9; ++i)
        pages.push_back(bp.allocatePage());
    auto set = [&](flash::Ppn ppn, flash::Lpn lpn) {
        bp.setUnit(ppn, 0, lpn);
        MapEntry e;
        e.planeLinear = 0;
        e.pool = 0;
        e.ppn = ppn;
        e.unit = 0;
        map.set(lpn, e);
    };
    set(pages[0], flash::Lpn{0}); // survives in old block A (block 0)
    set(pages[4], flash::Lpn{1}); // survives in young block B (block 1)
    // One idle step drains the victim's single valid page and erases it.
    bool did = false;
    gc.idleStep(0, did);
    EXPECT_TRUE(did);
    // Block 0 (old) must have been erased; its survivor relocated.
    EXPECT_EQ(bp.writtenPages(flash::BlockId{0}), 0u);
    EXPECT_TRUE(map.mapped(flash::Lpn{0}));
    EXPECT_TRUE(map.mapped(flash::Lpn{1}));
}

TEST(GcVictimPolicy, GreedyPrefersEmptierBlock)
{
    flash::Geometry g = GcRig::makeGeom();
    flash::Timing tm = GcRig::makeTiming();
    flash::FlashArray arr(g, tm, true);
    PageMap map(16);
    GcConfig cfg;
    cfg.hardFreeBlocks = 1;
    cfg.softFreeBlocks = 4;
    BadBlockManager bbm(1, 1, BbmConfig{});
    MetaJournal journal(map, JournalConfig{});
    GarbageCollector gc(arr, map, cfg, bbm, journal);

    auto &bp = arr.plane(0).pool(0);
    std::vector<flash::Ppn> pages;
    for (int i = 0; i < 9; ++i)
        pages.push_back(bp.allocatePage());
    auto set = [&](flash::Ppn ppn, flash::Lpn lpn) {
        bp.setUnit(ppn, 0, lpn);
        MapEntry e;
        e.planeLinear = 0;
        e.pool = 0;
        e.ppn = ppn;
        e.unit = 0;
        map.set(lpn, e);
    };
    // Block 0 keeps 3 valid units, block 1 keeps 1.
    set(pages[0], flash::Lpn{0});
    set(pages[1], flash::Lpn{1});
    set(pages[2], flash::Lpn{2});
    set(pages[4], flash::Lpn{3});
    bool did = false;
    gc.idleStep(0, did);
    EXPECT_TRUE(did);
    // Greedy erases block 1 (fewest valid units) in one step.
    EXPECT_EQ(bp.writtenPages(flash::BlockId{1}), 0u);
    EXPECT_GT(bp.writtenPages(flash::BlockId{0}), 0u);
}

TEST(Wear, ReportAggregatesPools)
{
    GcRig rig;
    sim::Time t = 0;
    for (int round = 0; round < 10; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    WearReport rep = computeWear(rig.array);
    EXPECT_EQ(rep.totalErases, rig.ftl.gcStats().erasedBlocks);
    EXPECT_GE(rep.maxEraseCount, rep.minEraseCount);
    EXPECT_GT(rep.meanEraseCount, 0.0);
    EXPECT_GT(rep.bytesProgrammed, 0u);
}

TEST(Wear, WriteAmplificationAtLeastOne)
{
    GcRig rig;
    sim::Time t = 0;
    for (int round = 0; round < 10; ++round) {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    }
    double wa = writeAmplification(rig.array, rig.ftl);
    // GC relocation means strictly more flash programs than host data.
    EXPECT_GE(wa, 1.0);
}

TEST(Wear, FreshDeviceHasZeroAmplification)
{
    GcRig rig;
    EXPECT_DOUBLE_EQ(writeAmplification(rig.array, rig.ftl), 0.0);
    WearReport rep = computeWear(rig.array);
    EXPECT_EQ(rep.totalErases, 0u);
    EXPECT_EQ(rep.minEraseCount, 0u);
}
