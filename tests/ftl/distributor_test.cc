/**
 * @file
 * Unit and property tests for the write split read off the geometry,
 * including the HPS split's defining examples from the paper. Suite
 * names say which scheme's pool layout a case splits.
 */

#include <gtest/gtest.h>

#include "ftl/distributor.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

/** A geometry with one pool per entry of @p page_bytes. */
flash::Geometry
geomOf(std::initializer_list<std::uint32_t> page_bytes)
{
    flash::Geometry g;
    for (std::uint32_t b : page_bytes)
        g.pools.push_back(flash::PoolConfig{b, 8});
    return g;
}

const flash::Geometry k4ps = geomOf({4096});
const flash::Geometry k8ps = geomOf({8192});
const flash::Geometry kHps = geomOf({4096, 8192});

std::vector<PageGroup>
split(const flash::Geometry &g, std::int64_t first, std::uint32_t n)
{
    std::vector<PageGroup> out;
    WriteSplit(g).split(flash::Lpn{first}, n,
                        [&](const PageGroup &pg) { out.push_back(pg); });
    return out;
}

/** Total units across all groups. */
std::uint32_t
totalUnits(const std::vector<PageGroup> &groups)
{
    std::uint32_t n = 0;
    for (const auto &g : groups)
        n += g.count;
    return n;
}

/** Check the groups cover exactly [first, first+n) in order. */
void
expectCovers(const std::vector<PageGroup> &groups, std::int64_t first,
             std::uint32_t n)
{
    flash::Lpn expect{first};
    for (const auto &g : groups) {
        EXPECT_EQ(g.first, expect);
        EXPECT_GE(g.count, 1u);
        expect += g.count;
    }
    EXPECT_EQ(expect, flash::Lpn{first} + n);
}

/** Flash bytes the groups consume: one whole page each. */
std::uint64_t
consumed(const flash::Geometry &g, const std::vector<PageGroup> &groups)
{
    std::uint64_t bytes = 0;
    for (const auto &pg : groups)
        bytes += g.pools[pg.pool].pageBytes;
    return bytes;
}

} // namespace

TEST(SinglePoolDistributor, OneUnitPerPage)
{
    auto groups = split(k4ps, 100, 5);
    ASSERT_EQ(groups.size(), 5u);
    for (const auto &g : groups) {
        EXPECT_EQ(g.pool, 0u);
        EXPECT_EQ(g.count, 1u);
    }
    expectCovers(groups, 100, 5);
}

TEST(SinglePoolDistributor, TwoUnitPagesWithOddTail)
{
    auto groups = split(k8ps, 0, 5);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].count, 2u);
    EXPECT_EQ(groups[1].count, 2u);
    EXPECT_EQ(groups[2].count, 1u); // padded physical page
    expectCovers(groups, 0, 5);
}

TEST(HpsDistributor, PaperExample20KB)
{
    // 20KB = 5 units => two 8KB sub-requests + one 4KB sub-request.
    auto groups = split(kHps, 0, 5);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].pool, 1u);
    EXPECT_EQ(groups[0].count, 2u);
    EXPECT_EQ(groups[1].pool, 1u);
    EXPECT_EQ(groups[1].count, 2u);
    EXPECT_EQ(groups[2].pool, 0u);
    EXPECT_EQ(groups[2].count, 1u);
    expectCovers(groups, 0, 5);
}

TEST(HpsDistributor, SingleUnitGoesTo4kPool)
{
    auto groups = split(kHps, 42, 1);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].pool, 0u);
    EXPECT_EQ(groups[0].first, flash::Lpn{42});
    EXPECT_EQ(groups[0].count, 1u);
}

TEST(HpsDistributor, EvenRequestUsesOnly8kPool)
{
    auto groups = split(kHps, 10, 8);
    ASSERT_EQ(groups.size(), 4u);
    for (const auto &g : groups) {
        EXPECT_EQ(g.pool, 1u);
        EXPECT_EQ(g.count, 2u);
    }
    expectCovers(groups, 10, 8);
}

TEST(WriteSplit, PoolsAreChosenByUnitsPerPageNotIndex)
{
    // The large-page pool first: the roles follow the page sizes.
    const WriteSplit s(geomOf({8192, 4096}));
    EXPECT_EQ(s.bulkPool, 0u);
    EXPECT_EQ(s.tailPool, 1u);
    // Three sizes: full 16KB pages, then the rest as 4KB pages.
    auto groups = split(geomOf({8192, 16384, 4096}), 0, 7);
    ASSERT_EQ(groups.size(), 4u);
    EXPECT_EQ(groups[0].pool, 1u);
    EXPECT_EQ(groups[0].count, 4u);
    for (std::size_t i = 1; i < groups.size(); ++i) {
        EXPECT_EQ(groups[i].pool, 2u);
        EXPECT_EQ(groups[i].count, 1u);
    }
    expectCovers(groups, 0, 7);
}

TEST(WriteSplit, TiesGoToTheLowestIndex)
{
    const WriteSplit s(geomOf({8192, 4096, 8192, 4096}));
    EXPECT_EQ(s.bulkPool, 0u);
    EXPECT_EQ(s.tailPool, 1u);
}

/**
 * Property sweep over request sizes: every layout covers the exact
 * unit range, and the flash consumption matches the analytic padding
 * model (4PS/HPS none, 8PS ceil-to-8KB).
 */
class DistributorSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(DistributorSweep, CoverageAndConsumption)
{
    const std::uint32_t n = GetParam();

    auto g4 = split(k4ps, 1000, n);
    auto g8 = split(k8ps, 1000, n);
    auto gh = split(kHps, 1000, n);

    expectCovers(g4, 1000, n);
    expectCovers(g8, 1000, n);
    expectCovers(gh, 1000, n);
    EXPECT_EQ(totalUnits(g4), n);
    EXPECT_EQ(totalUnits(g8), n);
    EXPECT_EQ(totalUnits(gh), n);

    // 4PS: one-unit pages.
    EXPECT_EQ(consumed(k4ps, g4), n * 4096ull);
    // 8PS: two-unit pages, an odd tail padded to a whole page.
    EXPECT_EQ(consumed(k8ps, g8), ((n + 1) / 2) * 8192ull);
    // HPS: pairs in 8KB pages + optional 4KB tail = exactly n units of
    // flash.
    EXPECT_EQ(consumed(kHps, gh), n * 4096ull);
}

INSTANTIATE_TEST_SUITE_P(RequestSizes, DistributorSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 8u,
                                           16u, 33u, 64u, 127u, 1024u));
