/**
 * @file
 * Strong unit types for the simulator's four addressing domains.
 *
 * The pipeline crosses four domains that are all "just integers" on
 * real hardware and therefore trivially easy to mix up in code:
 *
 *  - **LBA sectors** (512 B): how block traces and the eMMC interface
 *    address data (trace::TraceRecord, emmc::IoRequest).
 *  - **Logical mapping units** (4 KiB): the FTL's translation
 *    granularity (flash::Lpn in the mapping, distributor and pools).
 *  - **Physical flash addresses**: page numbers within a plane-pool
 *    (flash::Ppn) and block indices within a pool. The structured form
 *    (channel/chip/die/plane/pool/block/page) is flash::PageAddr.
 *  - **Bytes**: request sizes and capacities.
 *
 * (The fifth domain, the nanosecond clock, already has its own alias —
 * sim::Time — and deliberately keeps full integer arithmetic: durations
 * are added, subtracted, scaled and divided everywhere. It is re-exported
 * here so units.hh names the complete taxonomy.)
 *
 * Quantity<Tag> wraps the representation in a zero-overhead strong
 * typedef: same size, trivially copyable, no implicit conversion in or
 * out. Tags declare an arithmetic *role*:
 *
 *  - Role::Address — points at a location. Supports offsetting by a
 *    raw count (addr + n, addr - n) and differencing (addr - addr ->
 *    count), but never addr + addr.
 *  - Role::Size — measures an amount. Supports add/subtract/scale and
 *    ratio (size / size -> count), but cannot be mixed with addresses
 *    or with sizes of another unit.
 *
 * Every conversion between domains is a named function with an
 * alignment DCHECK (or an explicit *Floor / *Ceil spelling where
 * rounding is the intended semantic), so each crossing is a visible,
 * auditable call site instead of a silent integer cast.
 *
 * scripts/emmclint.py enforces the discipline around this header: raw
 * integer parameters named after a unit domain (lba / lpn / ppn / unit
 * / page / block / sector) are rejected everywhere outside this file.
 */

#ifndef EMMCSIM_CORE_UNITS_HH
#define EMMCSIM_CORE_UNITS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace emmcsim::units {

/** Arithmetic role of a unit tag (see file comment). */
enum class Role
{
    Address, ///< a location: offset by counts, difference to counts
    Size,    ///< an amount: add, subtract, scale, ratio
};

/**
 * Zero-overhead strong typedef carrying a unit tag.
 *
 * @tparam Tag Unit tag type providing `Rep` (the underlying integer)
 *         and `role` (the arithmetic role). Two quantities interoperate
 *         only when they share the exact same tag.
 */
template <class Tag>
class Quantity
{
  public:
    using Rep = typename Tag::Rep;
    static constexpr Role role = Tag::role;

    constexpr Quantity() = default;

    /** Wrap a raw value; explicit so no bare integer converts silently. */
    constexpr explicit Quantity(Rep v) : v_(v) {}

    /**
     * Leave the unit system. Every call site is a deliberate, greppable
     * domain exit (indexing a container, formatting a report, feeding a
     * double-valued statistic).
     */
    constexpr Rep value() const { return v_; }

    /** @name Same-tag comparisons. @{ */
    friend constexpr bool operator==(Quantity a, Quantity b)
    {
        return a.v_ == b.v_;
    }
    friend constexpr bool operator!=(Quantity a, Quantity b)
    {
        return a.v_ != b.v_;
    }
    friend constexpr bool operator<(Quantity a, Quantity b)
    {
        return a.v_ < b.v_;
    }
    friend constexpr bool operator<=(Quantity a, Quantity b)
    {
        return a.v_ <= b.v_;
    }
    friend constexpr bool operator>(Quantity a, Quantity b)
    {
        return a.v_ > b.v_;
    }
    friend constexpr bool operator>=(Quantity a, Quantity b)
    {
        return a.v_ >= b.v_;
    }
    /** @} */

    /** @name Address arithmetic (Role::Address only). @{ */

    /** Offset an address forward by a raw element count. */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Address, int> = 0>
    friend constexpr Quantity
    operator+(Quantity a, Rep n)
    {
        return Quantity{static_cast<Rep>(a.v_ + n)};
    }

    /** Offset an address backward by a raw element count. */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Address, int> = 0>
    friend constexpr Quantity
    operator-(Quantity a, Rep n)
    {
        return Quantity{static_cast<Rep>(a.v_ - n)};
    }

    /** Distance between two addresses, in elements of this domain. */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Address, int> = 0>
    friend constexpr Rep
    operator-(Quantity a, Quantity b)
    {
        return static_cast<Rep>(a.v_ - b.v_);
    }

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Address, int> = 0>
    constexpr Quantity &
    operator+=(Rep n)
    {
        v_ = static_cast<Rep>(v_ + n);
        return *this;
    }

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Address, int> = 0>
    constexpr Quantity &
    operator++()
    {
        ++v_;
        return *this;
    }

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Address, int> = 0>
    constexpr Quantity
    operator++(int)
    {
        Quantity old = *this;
        ++v_;
        return old;
    }
    /** @} */

    /** @name Size arithmetic (Role::Size only). @{ */

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Quantity
    operator+(Quantity a, Quantity b)
    {
        return Quantity{static_cast<Rep>(a.v_ + b.v_)};
    }

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Quantity
    operator-(Quantity a, Quantity b)
    {
        return Quantity{static_cast<Rep>(a.v_ - b.v_)};
    }

    /** Scale a size by a raw count. */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Quantity
    operator*(Quantity a, Rep n)
    {
        return Quantity{static_cast<Rep>(a.v_ * n)};
    }

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Quantity
    operator*(Rep n, Quantity a)
    {
        return Quantity{static_cast<Rep>(n * a.v_)};
    }

    /** Divide a size by a raw count. */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Quantity
    operator/(Quantity a, Rep n)
    {
        return Quantity{static_cast<Rep>(a.v_ / n)};
    }

    /** Ratio of two sizes (how many of @p b fit in @p a). */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Rep
    operator/(Quantity a, Quantity b)
    {
        return static_cast<Rep>(a.v_ / b.v_);
    }

    /** Remainder of a size modulo another size (alignment checks). */
    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    friend constexpr Quantity
    operator%(Quantity a, Quantity b)
    {
        return Quantity{static_cast<Rep>(a.v_ % b.v_)};
    }

    template <class T = Tag,
              std::enable_if_t<T::role == Role::Size, int> = 0>
    constexpr Quantity &
    operator+=(Quantity b)
    {
        v_ = static_cast<Rep>(v_ + b.v_);
        return *this;
    }
    /** @} */

    /** Streams the raw value, no unit suffix (text formats depend on
     * byte-identical output). */
    template <class CharT, class Traits>
    friend std::basic_ostream<CharT, Traits> &
    operator<<(std::basic_ostream<CharT, Traits> &os, Quantity q)
    {
        return os << q.v_;
    }

  private:
    Rep v_ = 0;
};

/** @name Unit tags. @{ */

/** Logical block address in 512 B trace sectors (host interface). */
struct LbaTag
{
    using Rep = std::uint64_t;
    static constexpr Role role = Role::Address;
};

/**
 * Logical 4 KiB mapping-unit address (the FTL's LPN). Signed so the
 * long-standing -1 "unmapped" sentinel keeps working in pool state.
 */
struct UnitTag
{
    using Rep = std::int64_t;
    static constexpr Role role = Role::Address;
};

/** Physical page number within one plane-pool (block * ppb + page). */
struct PageTag
{
    using Rep = std::uint64_t;
    static constexpr Role role = Role::Address;
};

/** Block index within one plane-pool. */
struct BlockTag
{
    using Rep = std::uint32_t;
    static constexpr Role role = Role::Address;
};

/** A size in bytes. */
struct ByteTag
{
    using Rep = std::uint64_t;
    static constexpr Role role = Role::Size;
};
/** @} */

using Lba = Quantity<LbaTag>;
using UnitAddr = Quantity<UnitTag>;
using PageNo = Quantity<PageTag>;
using BlockId = Quantity<BlockTag>;
using Bytes = Quantity<ByteTag>;

/** The nanosecond simulation clock, re-exported for the taxonomy. */
using Time = sim::Time;

/** "Unmapped / never written" logical-unit sentinel. */
constexpr UnitAddr kNoUnit{-1};

/** @name Domain constants (typed forms of sim/types.hh). @{ */
constexpr Bytes kSectorSize{sim::kSectorBytes};
constexpr Bytes kUnitSize{sim::kUnitBytes};
/** @} */

/* The whole point of the wrapper is that it costs nothing: pinned here
 * so a regression (a virtual, a non-trivial member) cannot slip in and
 * break the 48-byte InlineAction budget or golden byte-identity. */
static_assert(std::is_trivially_copyable_v<Lba> &&
                  sizeof(Lba) == sizeof(std::uint64_t),
              "Lba must stay a zero-overhead wrapper");
static_assert(std::is_trivially_copyable_v<UnitAddr> &&
                  sizeof(UnitAddr) == sizeof(std::int64_t),
              "UnitAddr must stay a zero-overhead wrapper");
static_assert(std::is_trivially_copyable_v<PageNo> &&
                  sizeof(PageNo) == sizeof(std::uint64_t),
              "PageNo must stay a zero-overhead wrapper");
static_assert(std::is_trivially_copyable_v<BlockId> &&
                  sizeof(BlockId) == sizeof(std::uint32_t),
              "BlockId must stay a zero-overhead wrapper");
static_assert(std::is_trivially_copyable_v<Bytes> &&
                  sizeof(Bytes) == sizeof(std::uint64_t),
              "Bytes must stay a zero-overhead wrapper");
static_assert(std::is_standard_layout_v<Lba> &&
                  std::is_standard_layout_v<UnitAddr> &&
                  std::is_standard_layout_v<PageNo> &&
                  std::is_standard_layout_v<BlockId> &&
                  std::is_standard_layout_v<Bytes>,
              "unit types must stay standard-layout");

/** @name Alignment predicates. @{ */

/** @return true when @p b is a whole number of 4 KiB mapping units. */
constexpr bool
isUnitAligned(Bytes b)
{
    return b.value() % sim::kUnitBytes == 0;
}

/** @return true when @p lba starts on a 4 KiB mapping-unit boundary. */
constexpr bool
isUnitAligned(Lba lba)
{
    return lba.value() % sim::kSectorsPerUnit == 0;
}

/** @return true when @p b is a whole number of 512 B sectors. */
constexpr bool
isSectorAligned(Bytes b)
{
    return b.value() % sim::kSectorBytes == 0;
}
/** @} */

/** @name Checked cross-domain conversions.
 *
 * The checked forms DCHECK exact alignment; use the *Floor / *Ceil
 * spellings when rounding is the intended semantic, so the rounding
 * direction is visible at the call site.
 * @{ */

/** Sector address -> mapping unit; requires 8-sector (4 KiB) alignment. */
inline UnitAddr
lbaToUnit(Lba lba)
{
    EMMCSIM_DCHECK(isUnitAligned(lba),
                   "lbaToUnit on a non-4KB-aligned sector address");
    return UnitAddr{
        static_cast<std::int64_t>(lba.value() / sim::kSectorsPerUnit)};
}

/** Sector address -> containing mapping unit (explicit floor). */
constexpr UnitAddr
lbaToUnitFloor(Lba lba)
{
    return UnitAddr{
        static_cast<std::int64_t>(lba.value() / sim::kSectorsPerUnit)};
}

/** First sector of mapping unit @p u. */
inline Lba
unitToLba(UnitAddr u)
{
    EMMCSIM_DCHECK(u.value() >= 0, "unitToLba on the unmapped sentinel");
    return Lba{static_cast<std::uint64_t>(u.value()) *
               sim::kSectorsPerUnit};
}

/** Byte size -> mapping units; requires exact 4 KiB alignment. */
inline std::uint64_t
bytesToUnits(Bytes b)
{
    EMMCSIM_DCHECK(isUnitAligned(b),
                   "bytesToUnits on a non-4KB-multiple size");
    return b.value() / sim::kUnitBytes;
}

/** Byte size -> mapping units, rounding up (explicit ceil). */
constexpr std::uint64_t
bytesToUnitsCeil(Bytes b)
{
    return (b.value() + sim::kUnitBytes - 1) / sim::kUnitBytes;
}

/** Byte size -> 512 B sectors; requires exact sector alignment. */
inline std::uint64_t
bytesToSectors(Bytes b)
{
    EMMCSIM_DCHECK(isSectorAligned(b),
                   "bytesToSectors on a non-sector-multiple size");
    return b.value() / sim::kSectorBytes;
}

/** @p n 512 B sectors as a byte size. */
constexpr Bytes
sectorsToBytes(std::uint64_t n)
{
    return Bytes{n * sim::kSectorBytes};
}

/** @p n 4 KiB mapping units as a byte size. */
constexpr Bytes
unitsToBytes(std::uint64_t n)
{
    return Bytes{n * sim::kUnitBytes};
}

/** Block that physical page @p p of a pool with @p pages_per_block
 * pages lives in. */
inline BlockId
pageToBlock(PageNo p, std::uint32_t pages_per_block)
{
    EMMCSIM_DCHECK(pages_per_block > 0, "pageToBlock without geometry");
    return BlockId{static_cast<std::uint32_t>(p.value() /
                                              pages_per_block)};
}

/** Page offset of physical page @p p within its block. */
inline std::uint32_t
pageIndexInBlock(PageNo p, std::uint32_t pages_per_block)
{
    EMMCSIM_DCHECK(pages_per_block > 0,
                   "pageIndexInBlock without geometry");
    return static_cast<std::uint32_t>(p.value() % pages_per_block);
}

/** First physical page of block @p b. */
constexpr PageNo
blockFirstPage(BlockId b, std::uint32_t pages_per_block)
{
    return PageNo{static_cast<std::uint64_t>(b.value()) *
                  pages_per_block};
}

/**
 * Fold a span of @p span units starting at unit @p unit into a device
 * exporting @p capacity units: a span that would run past the end
 * restarts at unit % (capacity - span + 1), the largest modulus that
 * keeps the whole span inside. Spans that fit are left alone. The
 * caller must reject span > capacity, which no fold can place.
 */
constexpr std::uint64_t
foldUnit(std::uint64_t unit, std::uint64_t span, std::uint64_t capacity)
{
    return unit + span > capacity ? unit % (capacity - span + 1) : unit;
}
/** @} */

} // namespace emmcsim::units

/** Hash support so unit types can key hash containers (lookup only;
 * iterating an unordered container into any report or trace is an
 * emmclint violation — see scripts/emmclint.py, rule unordered-iter). */
template <class Tag>
struct std::hash<emmcsim::units::Quantity<Tag>>
{
    std::size_t
    operator()(emmcsim::units::Quantity<Tag> q) const noexcept
    {
        return std::hash<typename Tag::Rep>{}(q.value());
    }
};

#endif // EMMCSIM_CORE_UNITS_HH
