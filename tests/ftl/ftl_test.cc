/**
 * @file
 * Unit tests for the Ftl facade: mapping consistency, read grouping,
 * pseudo reads, space accounting and over-provisioning.
 */

#include <gtest/gtest.h>

#include "ftl/ftl.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

/** Shorthand: a typed logical unit number from a literal. */
constexpr flash::Lpn
L(std::int64_t v)
{
    return flash::Lpn{v};
}

namespace {

flash::Geometry
tinyGeom(std::vector<flash::PoolConfig> pools = {{4096, 4}})
{
    flash::Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 2;
    g.pagesPerBlock = 4;
    g.pools = std::move(pools);
    return g;
}

flash::Timing
tinyTiming(std::size_t pool_count = 1)
{
    flash::Timing t;
    t.pools.assign(pool_count, flash::Timing::page4k());
    if (pool_count > 1)
        t.pools[1] = flash::Timing::page8k();
    return t;
}

struct FtlUnderTest
{
    flash::Geometry geom;
    flash::Timing timing;
    flash::FlashArray array;
    Ftl ftl;

    explicit FtlUnderTest(
        std::vector<flash::PoolConfig> pools = {{4096, 4}},
        FtlConfig cfg = makeCfg())
        : geom(tinyGeom(std::move(pools))),
          timing(tinyTiming(geom.pools.size())),
          array(geom, timing, true),
          ftl(array, cfg)
    {
    }

    static FtlConfig
    makeCfg()
    {
        FtlConfig cfg;
        cfg.opRatio = 0.25;
        cfg.gc.hardFreeBlocks = 1;
        cfg.gc.softFreeBlocks = 2;
        return cfg;
    }
};

} // namespace

TEST(Ftl, LogicalUnitsRespectOverProvisioning)
{
    FtlUnderTest t;
    // 2 planes * 4 blocks * 4 pages = 32 raw units; 25% reserved.
    EXPECT_EQ(t.ftl.logicalUnits(), 24u);
}

TEST(Ftl, WriteThenReadMapsUnits)
{
    FtlUnderTest t;
    sim::Time w = t.ftl.writeGroup(0, L(5), 1, 0).done;
    EXPECT_GT(w, 0);
    EXPECT_TRUE(t.ftl.map().mapped(L(5)));
    sim::Time r = t.ftl.readUnits(L(5), 1, w).done;
    EXPECT_GT(r, w);
    EXPECT_EQ(t.ftl.stats().hostUnitsWritten, 1u);
    EXPECT_EQ(t.ftl.stats().hostUnitsRead, 1u);
}

TEST(Ftl, OverwriteInvalidatesOldLocation)
{
    FtlUnderTest t;
    t.ftl.writeGroup(0, L(5), 1, 0);
    MapEntry old = t.ftl.map().lookup(L(5));
    t.ftl.writeGroup(0, L(5), 1, 0);
    MapEntry cur = t.ftl.map().lookup(L(5));
    EXPECT_NE(old, cur);
    auto &pool = t.array
                     .plane(static_cast<std::uint32_t>(old.planeLinear))
                     .pool(old.pool);
    EXPECT_FALSE(pool.unitValid(old.ppn, old.unit));
}

TEST(Ftl, MultiUnitPageSharesPhysicalPage)
{
    FtlUnderTest t({{8192, 4}});
    t.ftl.writeGroup(0, L(10), 2, 0);
    const MapEntry &a = t.ftl.map().lookup(L(10));
    const MapEntry &b = t.ftl.map().lookup(L(11));
    EXPECT_EQ(a.ppn, b.ppn);
    EXPECT_EQ(a.planeLinear, b.planeLinear);
    EXPECT_NE(a.unit, b.unit);
}

TEST(Ftl, ReadGroupsUnitsOfSamePage)
{
    FtlUnderTest t({{8192, 4}});
    t.ftl.writeGroup(0, L(10), 2, 0);
    auto before = t.ftl.stats().hostReadOps;
    t.ftl.readUnits(L(10), 2, 0);
    EXPECT_EQ(t.ftl.stats().hostReadOps, before + 1);
}

TEST(Ftl, ReadSplitAcrossPagesIssuesMultipleOps)
{
    FtlUnderTest t;
    t.ftl.writeGroup(0, L(10), 1, 0);
    t.ftl.writeGroup(0, L(11), 1, 0);
    auto before = t.ftl.stats().hostReadOps;
    t.ftl.readUnits(L(10), 2, 0);
    EXPECT_EQ(t.ftl.stats().hostReadOps, before + 2);
}

TEST(Ftl, FragmentedReadCompletionIsOrderStable)
{
    // Regression pin for the read-grouping determinism fix: grouped
    // reads must issue in first-touch (logical) order. The grouping
    // container used to be iterated in std::unordered_map hash
    // order, which is unspecified — a different standard library
    // could legally issue the same groups in another order and shift
    // completion times, breaking cross-platform golden replays
    // (ReplayGolden.TwitterHpsByteIdentical pins the end-to-end
    // consequence; this test pins the mechanism in isolation).
    // Interleave single-unit writes so consecutive lpns land on
    // alternating planes: readUnits(0, 6) then needs six distinct
    // groups spread over both planes.
    auto run = [] {
        FtlUnderTest t;
        for (std::int64_t u : {0, 2, 4, 1, 3, 5})
            t.ftl.writeGroup(0, L(u), 1, 0);
        const sim::Time done = t.ftl.readUnits(L(0), 6, 0).done;
        EXPECT_EQ(t.ftl.stats().hostReadOps, 6u);
        return done;
    };
    // Two identically-built devices, identical sequence: the grouped
    // read must complete at the identical instant.
    EXPECT_EQ(run(), run());
}

TEST(Ftl, UnmappedReadStillCostsTime)
{
    FtlUnderTest t;
    sim::Time r = t.ftl.readUnits(L(0), 4, 0).done;
    EXPECT_GT(r, 0);
    EXPECT_EQ(t.ftl.stats().hostReadOps, 4u);
}

TEST(Ftl, UnmappedReadUsesPseudoDistributorSplit)
{
    // On an HPS-style geometry the split times a 4-unit unmapped
    // read as two 8KB page reads instead of four 4KB reads, and a
    // 5-unit one adds a 4KB read for the tail.
    FtlUnderTest t({{4096, 4}, {8192, 4}});
    t.ftl.readUnits(L(0), 4, 0);
    EXPECT_EQ(t.ftl.stats().hostReadOps, 2u);
    t.ftl.readUnits(L(8), 5, 0);
    EXPECT_EQ(t.ftl.stats().hostReadOps, 5u);
}

TEST(Ftl, ZeroUnitReadIsFree)
{
    FtlUnderTest t;
    EXPECT_EQ(t.ftl.readUnits(L(0), 0, 77).done, 77);
    EXPECT_EQ(t.ftl.stats().hostReadOps, 0u);
}

TEST(Ftl, SpaceAccountingChargesFullPage)
{
    FtlUnderTest t({{4096, 4}, {8192, 4}});
    t.ftl.writeGroup(1, L(0), 1, 0); // one unit into an 8KB page
    EXPECT_EQ(t.ftl.stats().hostUnitsWritten, 1u);
    EXPECT_EQ(t.ftl.stats().hostBytesConsumed, 8192u);
    t.ftl.writeGroup(0, L(1), 1, 0); // one unit into a 4KB page
    EXPECT_EQ(t.ftl.stats().hostBytesConsumed, 8192u + 4096u);
}

TEST(Ftl, RoundRobinSpreadsPlanes)
{
    FtlUnderTest t;
    t.ftl.writeGroup(0, L(0), 1, 0);
    t.ftl.writeGroup(0, L(1), 1, 0);
    EXPECT_NE(t.ftl.map().lookup(L(0)).planeLinear,
              t.ftl.map().lookup(L(1)).planeLinear);
}

TEST(Ftl, InstallGroupIsStateOnly)
{
    FtlUnderTest t;
    t.ftl.installGroup(0, L(7), 1);
    EXPECT_TRUE(t.ftl.map().mapped(L(7)));
    EXPECT_EQ(t.array.totalStats().programs, 0u);
    EXPECT_EQ(t.ftl.stats().hostUnitsWritten, 0u);
    // A later read of the installed unit is a normal mapped read.
    t.ftl.readUnits(L(7), 1, 0);
    EXPECT_EQ(t.array.totalStats().reads, 1u);
}

TEST(FtlDeath, ReadPastLogicalCapacityPanics)
{
    FtlUnderTest t;
    EXPECT_DEATH(t.ftl.readUnits(L(23), 2, 0), "past logical capacity");
}

TEST(FtlDeath, OversizedGroupPanics)
{
    FtlUnderTest t;
    EXPECT_DEATH(t.ftl.writeGroup(0, L(0), 2, 0), "unitsPerPage");
}

TEST(Ftl, PoolOverflowRedirectsToOtherPool)
{
    // Fill the tiny 8KB pool with live pairs until it cannot reclaim,
    // then keep writing pairs: they must overflow into the 4KB pool
    // instead of wedging the device.
    FtlUnderTest t({{4096, 8}, {8192, 2}});
    sim::Time now = 0;
    flash::Lpn lpn{0};
    // 8KB pool: 2 planes x 2 blocks x 4 pages x 2 units = 32 units.
    // Write 64 distinct pairs; beyond the pool's live capacity the
    // FTL must redirect.
    for (int i = 0; i < 32; ++i, lpn += 2)
        now = t.ftl.writeGroup(1, lpn, 2, now).done;
    EXPECT_GT(t.ftl.stats().overflowRedirects, 0u);
    // All data remains addressable.
    for (flash::Lpn u{0}; u < lpn; ++u)
        EXPECT_TRUE(t.ftl.map().mapped(u)) << u.value();
}
