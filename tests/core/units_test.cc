/**
 * @file
 * Tests for the strong unit types in core/units.hh: conversion
 * semantics, alignment DCHECKs, arithmetic-role restrictions (pinned
 * at compile time), layout guarantees and byte-identical streaming.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "core/units.hh"

using namespace emmcsim;
using namespace emmcsim::units;

// ---------------------------------------------------------------------------
// Compile-time contract: the role system must *reject* cross-domain
// and role-inappropriate arithmetic. Expression-SFINAE probes turn
// "this must not compile" into static_asserts that run on every
// build, so a relaxation of the operator set cannot land silently.

namespace {

template <class A, class B, class = void>
struct CanAdd : std::false_type
{
};
template <class A, class B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type
{
};

template <class A, class B, class = void>
struct CanSub : std::false_type
{
};
template <class A, class B>
struct CanSub<A, B,
              std::void_t<decltype(std::declval<A>() - std::declval<B>())>>
    : std::true_type
{
};

template <class A, class B, class = void>
struct CanEq : std::false_type
{
};
template <class A, class B>
struct CanEq<A, B,
             std::void_t<decltype(std::declval<A>() == std::declval<B>())>>
    : std::true_type
{
};

template <class A, class B, class = void>
struct CanMul : std::false_type
{
};
template <class A, class B>
struct CanMul<A, B,
              std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type
{
};

// Addresses: offset and difference exist, address + address does not.
static_assert(CanAdd<Lba, std::uint64_t>::value,
              "address + count must work");
static_assert(!CanAdd<Lba, Lba>::value,
              "address + address must not compile");
static_assert(CanSub<Lba, Lba>::value,
              "address - address (distance) must work");
static_assert(!CanMul<Lba, std::uint64_t>::value,
              "scaling an address must not compile");

// Sizes: add/scale/ratio exist, size + raw offset does not.
static_assert(CanAdd<Bytes, Bytes>::value, "size + size must work");
static_assert(!CanAdd<Bytes, std::uint64_t>::value,
              "size + raw count must not compile");
static_assert(CanMul<Bytes, std::uint64_t>::value,
              "size * count must work");

// Cross-domain mixes never compile, not even comparisons.
static_assert(!CanEq<Lba, UnitAddr>::value,
              "sector and unit addresses must not compare");
static_assert(!CanEq<PageNo, BlockId>::value,
              "page and block addresses must not compare");
static_assert(!CanAdd<Bytes, Lba>::value,
              "bytes + sectors must not compile");
static_assert(!CanSub<UnitAddr, PageNo>::value,
              "logical - physical must not compile");

// No implicit construction from or conversion to raw integers.
static_assert(!std::is_convertible_v<std::uint64_t, Lba>,
              "raw integers must not silently become addresses");
static_assert(!std::is_convertible_v<Lba, std::uint64_t>,
              "addresses must not silently decay to raw integers");

} // namespace

// ---------------------------------------------------------------------------
// Conversions.

TEST(Units, LbaUnitRoundTrip)
{
    const Lba lba{24}; // sector 24 == unit 3
    const UnitAddr u = lbaToUnit(lba);
    EXPECT_EQ(u, UnitAddr{3});
    EXPECT_EQ(unitToLba(u), lba);
}

TEST(Units, LbaToUnitFloorRoundsDown)
{
    EXPECT_EQ(lbaToUnitFloor(Lba{0}), UnitAddr{0});
    EXPECT_EQ(lbaToUnitFloor(Lba{7}), UnitAddr{0});
    EXPECT_EQ(lbaToUnitFloor(Lba{8}), UnitAddr{1});
    EXPECT_EQ(lbaToUnitFloor(Lba{15}), UnitAddr{1});
}

TEST(Units, ByteConversions)
{
    EXPECT_EQ(bytesToUnits(Bytes{8192}), 2u);
    EXPECT_EQ(bytesToUnitsCeil(Bytes{8192}), 2u);
    EXPECT_EQ(bytesToUnitsCeil(Bytes{8193}), 3u);
    EXPECT_EQ(bytesToUnitsCeil(Bytes{1}), 1u);
    EXPECT_EQ(bytesToSectors(Bytes{1024}), 2u);
    EXPECT_EQ(sectorsToBytes(2), Bytes{1024});
    EXPECT_EQ(unitsToBytes(3), Bytes{12288});
}

TEST(Units, PageBlockGeometry)
{
    const std::uint32_t ppb = 16;
    const PageNo p{35}; // block 2, page 3
    EXPECT_EQ(pageToBlock(p, ppb), BlockId{2});
    EXPECT_EQ(pageIndexInBlock(p, ppb), 3u);
    EXPECT_EQ(blockFirstPage(BlockId{2}, ppb), PageNo{32});
    EXPECT_EQ(blockFirstPage(BlockId{2}, ppb) + 3, p);
}

TEST(Units, FoldUnitKeepsSpansInsideCapacity)
{
    // Spans that fit, up to the last unit, stay where they are.
    EXPECT_EQ(foldUnit(0, 4, 100), 0u);
    EXPECT_EQ(foldUnit(96, 4, 100), 96u);
    // One unit past the end folds modulo capacity - span + 1 = 97.
    EXPECT_EQ(foldUnit(97, 4, 100), 0u);
    EXPECT_EQ(foldUnit(99, 4, 100), 2u);
    EXPECT_EQ(foldUnit(1000, 4, 100), 1000u % 97u);
    // A span as large as the device has exactly one place.
    EXPECT_EQ(foldUnit(0, 100, 100), 0u);
    EXPECT_EQ(foldUnit(5, 100, 100), 0u);
    for (std::uint64_t u = 0; u < 300; ++u)
        EXPECT_LE(foldUnit(u, 4, 100) + 4, 100u) << u;
}

TEST(Units, AlignmentPredicates)
{
    EXPECT_TRUE(isUnitAligned(Bytes{0}));
    EXPECT_TRUE(isUnitAligned(Bytes{4096}));
    EXPECT_FALSE(isUnitAligned(Bytes{4097}));
    EXPECT_TRUE(isUnitAligned(Lba{8}));
    EXPECT_FALSE(isUnitAligned(Lba{9}));
    EXPECT_TRUE(isSectorAligned(Bytes{512}));
    EXPECT_FALSE(isSectorAligned(Bytes{513}));
}

// ---------------------------------------------------------------------------
// Arithmetic semantics.

TEST(Units, AddressOffsetAndDistance)
{
    Lba a{100};
    EXPECT_EQ(a + 8, Lba{108});
    EXPECT_EQ(a - 4, Lba{96});
    EXPECT_EQ(Lba{108} - a, 8u);
    a += 16;
    EXPECT_EQ(a, Lba{116});
    ++a;
    EXPECT_EQ(a, Lba{117});
    Lba old = a++;
    EXPECT_EQ(old, Lba{117});
    EXPECT_EQ(a, Lba{118});
}

TEST(Units, SignedUnitDistanceCanBeNegative)
{
    // UnitAddr is signed (for the -1 sentinel); distances follow.
    EXPECT_EQ(UnitAddr{3} - UnitAddr{5}, -2);
    EXPECT_LT(kNoUnit, UnitAddr{0});
    EXPECT_EQ(kNoUnit.value(), -1);
}

TEST(Units, SizeArithmetic)
{
    Bytes b{4096};
    EXPECT_EQ(b + Bytes{512}, Bytes{4608});
    EXPECT_EQ(b - Bytes{1024}, Bytes{3072});
    EXPECT_EQ(b * 3, Bytes{12288});
    EXPECT_EQ(2 * b, Bytes{8192});
    EXPECT_EQ(b / 2, Bytes{2048});
    EXPECT_EQ(Bytes{12288} / b, 3u);
    EXPECT_EQ(Bytes{4608} % b, Bytes{512});
    b += Bytes{4096};
    EXPECT_EQ(b, Bytes{8192});
}

TEST(Units, UnsignedOverflowWrapsLikeRep)
{
    // The wrapper must not change representation semantics: unsigned
    // reps wrap exactly as the raw integer would (golden replays of
    // the wrap-around replayer path depend on this).
    const std::uint64_t max = ~0ull;
    EXPECT_EQ((Lba{max} + 1).value(), 0u);
    EXPECT_EQ((Lba{0} - 1).value(), max);
    EXPECT_EQ((Bytes{max} + Bytes{2}).value(), 1u);
}

// ---------------------------------------------------------------------------
// Layout and hashing.

TEST(Units, HashSupportsLookupContainers)
{
    std::unordered_map<units::UnitAddr, int> m;
    m[UnitAddr{7}] = 42;
    EXPECT_EQ(m.at(UnitAddr{7}), 42);
    EXPECT_EQ(m.count(UnitAddr{8}), 0u);
    EXPECT_EQ(std::hash<Lba>{}(Lba{9}),
              std::hash<std::uint64_t>{}(9));
}

// ---------------------------------------------------------------------------
// Streaming: the typed fields serialize as the raw number with no
// adornment, so every text format (traces, reports) stays
// byte-identical with the pre-typed code.

TEST(Units, StreamsAsRawValue)
{
    std::ostringstream os;
    os << Lba{123} << ' ' << Bytes{4096} << ' ' << kNoUnit;
    EXPECT_EQ(os.str(), "123 4096 -1");
}

// ---------------------------------------------------------------------------
// DCHECK guards: checked conversions must refuse misaligned input
// loudly. DCHECKs compile out under NDEBUG, so these death tests run
// only in checked builds.

#if EMMCSIM_DCHECKS_ENABLED
TEST(UnitsDeath, LbaToUnitRejectsMisalignment)
{
    EXPECT_DEATH(lbaToUnit(Lba{9}), "non-4KB-aligned");
}

TEST(UnitsDeath, BytesToUnitsRejectsMisalignment)
{
    EXPECT_DEATH(bytesToUnits(Bytes{4097}), "non-4KB-multiple");
}

TEST(UnitsDeath, BytesToSectorsRejectsMisalignment)
{
    EXPECT_DEATH(bytesToSectors(Bytes{513}), "non-sector-multiple");
}

TEST(UnitsDeath, UnitToLbaRejectsSentinel)
{
    EXPECT_DEATH(unitToLba(kNoUnit), "unmapped sentinel");
}
#endif
