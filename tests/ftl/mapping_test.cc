/**
 * @file
 * Unit tests for the logical-to-physical page map.
 */

#include <gtest/gtest.h>

#include "ftl/mapping.hh"

using namespace emmcsim::ftl;
using emmcsim::flash::Lpn;
using emmcsim::flash::Ppn;

namespace {

MapEntry
entry(std::int32_t plane, std::uint16_t pool, std::uint64_t ppn,
      std::uint16_t slot)
{
    MapEntry e;
    e.planeLinear = plane;
    e.pool = pool;
    e.ppn = emmcsim::flash::Ppn{ppn};
    e.unit = slot;
    return e;
}

} // namespace

TEST(PageMap, StartsUnmapped)
{
    PageMap m(100);
    EXPECT_EQ(m.logicalUnits(), 100u);
    EXPECT_EQ(m.mappedCount(), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(m.mapped(Lpn{i}));
}

TEST(PageMap, SetAndLookup)
{
    PageMap m(10);
    m.set(Lpn{3}, entry(2, 1, 42, 1));
    EXPECT_TRUE(m.mapped(Lpn{3}));
    const MapEntry &e = m.lookup(Lpn{3});
    EXPECT_EQ(e.planeLinear, 2);
    EXPECT_EQ(e.pool, 1);
    EXPECT_EQ(e.ppn, Ppn{42});
    EXPECT_EQ(e.unit, 1);
    EXPECT_EQ(m.mappedCount(), 1u);
}

TEST(PageMap, OverwriteKeepsCount)
{
    PageMap m(10);
    m.set(Lpn{3}, entry(0, 0, 1, 0));
    m.set(Lpn{3}, entry(1, 0, 2, 0));
    EXPECT_EQ(m.mappedCount(), 1u);
    EXPECT_EQ(m.lookup(Lpn{3}).ppn, Ppn{2});
}

TEST(PageMap, EntryMappedPredicate)
{
    MapEntry e;
    EXPECT_FALSE(e.mapped());
    e.planeLinear = 0;
    EXPECT_TRUE(e.mapped());
}

TEST(PageMapDeath, OutOfRangePanics)
{
    PageMap m(4);
    EXPECT_DEATH(m.lookup(Lpn{4}), "out of logical range");
    EXPECT_DEATH(m.lookup(Lpn{-1}), "out of logical range");
    EXPECT_DEATH(m.set(Lpn{4}, entry(0, 0, 0, 0)), "out of logical range");
}

TEST(PageMapDeath, SetUnmappedEntryPanics)
{
    PageMap m(4);
    MapEntry unmapped;
    EXPECT_DEATH(m.set(Lpn{0}, unmapped), "setting unmapped entry");
}

TEST(PageMap, ManyEntriesIndependent)
{
    PageMap m(1000);
    for (int i = 0; i < 1000; i += 3)
        m.set(Lpn{i}, entry(i % 8, 0, static_cast<std::uint64_t>(i) * 7, 0));
    for (int i = 0; i < 1000; ++i) {
        if (i % 3 == 0) {
            ASSERT_TRUE(m.mapped(Lpn{i}));
            EXPECT_EQ(m.lookup(Lpn{i}).ppn,
                      Ppn{static_cast<std::uint64_t>(i) * 7});
        } else {
            EXPECT_FALSE(m.mapped(Lpn{i}));
        }
    }
}
