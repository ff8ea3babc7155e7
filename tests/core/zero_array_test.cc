/**
 * @file
 * core::ZeroArray: zero-initialized storage on an anonymous mapping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/zero_array.hh"

using emmcsim::core::ZeroArray;

namespace {

struct Entry
{
    std::int32_t a;
    std::uint16_t b;
    std::uint16_t c;
    std::uint64_t d;
};

} // namespace

TEST(ZeroArray, StartsZero)
{
    ZeroArray<Entry> z(1 << 20);
    ASSERT_EQ(z.size(), 1u << 20);
    for (std::size_t i : {std::size_t{0}, std::size_t{12345},
                          z.size() - 1}) {
        EXPECT_TRUE(z.isZero(i));
        EXPECT_EQ(z[i].d, 0u);
    }
}

TEST(ZeroArray, ZeroRangeClearsOnlyThatRange)
{
    ZeroArray<std::uint64_t> z(64);
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = i % 3 == 0 ? 0 : i;
    z.zero(10, 20);
    for (std::size_t i = 0; i < z.size(); ++i) {
        const std::uint64_t want =
            (i >= 10 && i < 30) || i % 3 == 0 ? 0 : i;
        EXPECT_EQ(z[i], want) << i;
    }
}

TEST(ZeroArray, ClearReturnsEveryElementToZero)
{
    ZeroArray<Entry> z(100000);
    z[0].a = 7;
    z[99999].d = 9;
    z.clear();
    EXPECT_TRUE(z.isZero(0));
    EXPECT_TRUE(z.isZero(99999));
    z[5].b = 3; // still writable after clear
    EXPECT_EQ(z[5].b, 3u);
}

TEST(ZeroArray, MoveTransfersTheMapping)
{
    ZeroArray<std::uint8_t> a(4096);
    a[17] = 42;
    ZeroArray<std::uint8_t> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    ASSERT_EQ(b.size(), 4096u);
    EXPECT_EQ(b[17], 42u);

    ZeroArray<std::uint8_t> c(8);
    c = std::move(b);
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(c[17], 42u);
    static_assert(std::is_nothrow_move_constructible_v<ZeroArray<int>>);
    static_assert(std::is_nothrow_move_assignable_v<ZeroArray<int>>);
}

TEST(ZeroArray, EmptyArrayHasNoMapping)
{
    ZeroArray<std::uint64_t> z(0);
    EXPECT_EQ(z.size(), 0u);
    z.clear();
    EXPECT_TRUE(z.span().empty());
}

#if EMMCSIM_DCHECKS_ENABLED
TEST(ZeroArrayDeath, IndexPastTheEndPanics)
{
    ZeroArray<std::uint32_t> z(16);
    EXPECT_DEATH(z[16] = 1, "ZeroArray index out of range");
}
#endif
