/**
 * @file
 * Table V configuration preset tests.
 */

#include <gtest/gtest.h>

#include "emmc/config.hh"
#include "ftl/distributor.hh"

using namespace emmcsim;
using namespace emmcsim::emmc;

TEST(Config, NamesMatchSchemes)
{
    EXPECT_EQ(make4psConfig().name, "4PS");
    EXPECT_EQ(make8psConfig().name, "8PS");
    EXPECT_EQ(makeHpsConfig().name, "HPS");
}

TEST(Config, TimingPoolsParallelGeometryPools)
{
    for (const EmmcConfig &cfg :
         {make4psConfig(), make8psConfig(), makeHpsConfig()}) {
        EXPECT_EQ(cfg.timing.pools.size(), cfg.geometry.pools.size());
    }
}

TEST(Config, Table5Latencies)
{
    auto c4 = make4psConfig();
    EXPECT_EQ(c4.timing.pools[0].readLatency, sim::microseconds(160));
    EXPECT_EQ(c4.timing.pools[0].programLatency,
              sim::microseconds(1385));

    auto c8 = make8psConfig();
    EXPECT_EQ(c8.timing.pools[0].readLatency, sim::microseconds(244));
    EXPECT_EQ(c8.timing.pools[0].programLatency,
              sim::microseconds(1491));

    auto ch = makeHpsConfig();
    EXPECT_EQ(ch.timing.pools[kHps4kPool].readLatency,
              sim::microseconds(160));
    EXPECT_EQ(ch.timing.pools[kHps8kPool].readLatency,
              sim::microseconds(244));
}

TEST(Config, BlocksPerPlaneMatchTable5)
{
    EXPECT_EQ(make4psConfig().geometry.pools[0].blocksPerPlane, 1024u);
    EXPECT_EQ(make8psConfig().geometry.pools[0].blocksPerPlane, 512u);
}

TEST(Config, DefaultsMatchPaperSetup)
{
    auto cfg = make4psConfig();
    EXPECT_FALSE(cfg.power.enabled);   // Fig 8: pure device comparison
    EXPECT_FALSE(cfg.buffer.enabled);  // paper disables the RAM buffer
    EXPECT_TRUE(cfg.packing.enabled);  // eMMC 4.5 packed commands
    EXPECT_FALSE(cfg.multiplane);      // Implication 1: limited parallelism
    EXPECT_FALSE(cfg.idleGcEnabled);
}

TEST(Config, HpsDefaultReadPoolIs4k)
{
    // Unmapped-read tails and metadata pages use the split's
    // small-page pool, which is the 4KB pool on HPS and HSLC.
    EXPECT_EQ(ftl::WriteSplit(makeHpsConfig().geometry).tailPool,
              kHps4kPool);
    EXPECT_EQ(ftl::WriteSplit(makeHpsSlcConfig().geometry).tailPool,
              kHps4kPool);
}

TEST(Config, GeometriesValidate)
{
    // validate() fatals on inconsistency; reaching here means pass.
    make4psConfig().geometry.validate();
    make8psConfig().geometry.validate();
    makeHpsConfig().geometry.validate();
    SUCCEED();
}

TEST(Config, HslcExtensionLayout)
{
    auto cfg = makeHpsSlcConfig();
    EXPECT_EQ(cfg.name, "HSLC");
    // Same block counts as HPS, half the pages in the 4KB pool.
    EXPECT_EQ(cfg.geometry.pools[kHps4kPool].blocksPerPlane, 512u);
    EXPECT_EQ(cfg.geometry.pools[kHps4kPool].pagesPerBlockOverride,
              512u);
    EXPECT_EQ(cfg.geometry.poolPagesPerBlock(kHps4kPool), 512u);
    EXPECT_EQ(cfg.geometry.poolPagesPerBlock(kHps8kPool), 1024u);
    // 50% density loss on the 4KB pool: 32 GB -> 24 GB.
    EXPECT_EQ(cfg.geometry.capacityBytes().value(), 24ull << 30);
    // SLC-mode latencies are strictly faster than the MLC 4KB pool.
    auto mlc = makeHpsConfig().timing.pools[kHps4kPool];
    auto slc = cfg.timing.pools[kHps4kPool];
    EXPECT_LT(slc.readLatency, mlc.readLatency);
    EXPECT_LT(slc.programLatency, mlc.programLatency);
}
