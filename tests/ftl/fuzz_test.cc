/**
 * @file
 * Randomized consistency tests: drive the FTL with random write /
 * read traffic against a simple reference model and check that
 * the mapping, pool validity, and conservation invariants hold after
 * every step — including through garbage collection, on a single-pool
 * and a hybrid-page-size geometry.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "ftl/ftl.hh"
#include "sim/random.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

struct FuzzRig
{
    flash::Geometry geom;
    flash::Timing timing;
    flash::FlashArray array;
    Ftl ftl;

    explicit FuzzRig(bool hybrid)
        : geom(makeGeom(hybrid)),
          timing(makeTiming(hybrid)),
          array(geom, timing, true),
          ftl(array, makeCfg())
    {
    }

    static flash::Geometry
    makeGeom(bool hybrid)
    {
        flash::Geometry g;
        g.channels = 2;
        g.chipsPerChannel = 1;
        g.diesPerChip = 1;
        g.planesPerDie = 2;
        g.pagesPerBlock = 8;
        if (hybrid) {
            // The 8KB pool takes the bulk of random-size writes
            // (unit pairs), so it gets the larger share.
            g.pools = {flash::PoolConfig{4096, 8},
                       flash::PoolConfig{8192, 8}};
        } else {
            g.pools = {flash::PoolConfig{4096, 12}};
        }
        return g;
    }

    static flash::Timing
    makeTiming(bool hybrid)
    {
        flash::Timing t;
        t.pools = {flash::Timing::page4k()};
        if (hybrid)
            t.pools.push_back(flash::Timing::page8k());
        return t;
    }

    static FtlConfig
    makeCfg()
    {
        FtlConfig cfg;
        cfg.opRatio = 0.45; // small logical space: heavy GC churn
        cfg.gc.hardFreeBlocks = 1;
        cfg.gc.softFreeBlocks = 2;
        return cfg;
    }

    /** Full cross-check of map vs pool state vs reference set. */
    void
    checkConsistency(const std::unordered_set<flash::Lpn> &live) const
    {
        // Every reference-live lpn maps to a live physical unit that
        // stores exactly this lpn.
        for (flash::Lpn lpn : live) {
            ASSERT_TRUE(ftl.map().mapped(lpn)) << lpn;
            const MapEntry &e = ftl.map().lookup(lpn);
            const auto &bp =
                array
                    .plane(static_cast<std::uint32_t>(e.planeLinear))
                    .pool(e.pool);
            ASSERT_TRUE(bp.unitValid(e.ppn, e.unit)) << lpn;
            ASSERT_EQ(bp.lpnAt(e.ppn, e.unit), lpn);
        }
        // Mapped count agrees with the reference set.
        ASSERT_EQ(ftl.map().mappedCount(), live.size());

        // Total valid units across pools agrees too (no leaks).
        std::uint64_t valid = 0;
        for (std::uint32_t p = 0; p < geom.planeCount(); ++p) {
            for (std::size_t k = 0; k < geom.pools.size(); ++k)
                valid += array.plane(p).pool(k).validUnitCount();
        }
        ASSERT_EQ(valid, live.size());
    }
};

} // namespace

/** (scheme-hybrid?, seed) parameter. */
class FtlFuzz : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

TEST_P(FtlFuzz, RandomTrafficKeepsInvariants)
{
    const bool hybrid = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());

    FuzzRig rig(hybrid);

    const auto logical =
        static_cast<std::int64_t>(rig.ftl.logicalUnits());
    ASSERT_GT(logical, 8);

    sim::Rng rng(static_cast<std::uint64_t>(seed));
    std::unordered_set<flash::Lpn> live;
    sim::Time t = 0;

    for (int step = 0; step < 800; ++step) {
        const int op = static_cast<int>(rng.uniformInt(0, 9));
        const std::uint32_t n =
            static_cast<std::uint32_t>(rng.uniformInt(1, 8));
        const flash::Lpn start{
            rng.uniformInt(0, logical - static_cast<std::int64_t>(n))};

        if (op < 6) { // write
            rig.ftl.writeSplit().split(start, n, [&](const PageGroup &g) {
                t = rig.ftl.writeGroup(g.pool, g.first, g.count, t).done;
                for (std::uint32_t i = 0; i < g.count; ++i)
                    live.insert(g.first + i);
            });
        } else { // read (mapped or not)
            sim::Time done = rig.ftl.readUnits(start, n, t).done;
            ASSERT_GE(done, t);
        }

        if (step % 50 == 0)
            rig.checkConsistency(live);
    }
    rig.checkConsistency(live);
    // GC must actually have run during the churn for the test to mean
    // anything (logical space is ~45% of raw).
    EXPECT_GT(rig.ftl.gcStats().erasedBlocks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FtlFuzz,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>> &info) {
        return std::string(std::get<0>(info.param) ? "Hybrid" : "Flat") +
               "Seed" + std::to_string(std::get<1>(info.param));
    });
