/**
 * @file
 * Flash array geometry: channel x chip x die x plane x block x page.
 *
 * A plane owns one or more block *pools*; all blocks in a pool share a
 * page size. A conventional device (4PS / 8PS in the paper's Table V)
 * has a single pool per plane; the HPS device has two (512 blocks of
 * 4KB pages + 256 blocks of 8KB pages), mirroring Fig 10.
 */

#ifndef EMMCSIM_FLASH_GEOMETRY_HH
#define EMMCSIM_FLASH_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "core/units.hh"
#include "sim/types.hh"

namespace emmcsim::flash {

/** One block pool inside a plane: a page size and a block budget. */
struct PoolConfig
{
    /** Physical page size in bytes (multiple of the 4KB unit). */
    std::uint32_t pageBytes = 4096;
    /** Number of blocks of this page size per plane. */
    std::uint32_t blocksPerPlane = 0;
    /**
     * Pages per block for this pool; 0 inherits the geometry-wide
     * value. MLC blocks operated in SLC mode (Implication 5) expose
     * half the pages of the same physical block.
     */
    std::uint32_t pagesPerBlockOverride = 0;

    /** 4KB mapping units per physical page. */
    std::uint32_t unitsPerPage() const;
};

/** Static description of the whole flash array. */
struct Geometry
{
    std::uint32_t channels = 2;
    std::uint32_t chipsPerChannel = 1;
    std::uint32_t diesPerChip = 2;
    std::uint32_t planesPerDie = 2;
    std::uint32_t pagesPerBlock = 1024;
    /** Block pools per plane (>= 1). */
    std::vector<PoolConfig> pools;

    /** Total number of planes in the array. */
    std::uint32_t planeCount() const;
    /** Total number of dies in the array. */
    std::uint32_t dieCount() const;
    /** Raw capacity across all planes and pools. */
    units::Bytes capacityBytes() const;
    /** Raw capacity in 4KB units. */
    std::uint64_t capacityUnits() const;
    /** Size of one block of pool @p pool. */
    units::Bytes blockBytes(std::size_t pool) const;
    /** Pages per block of pool @p pool (override-aware). */
    std::uint32_t poolPagesPerBlock(std::size_t pool) const;

    /** Validate invariants; calls sim::fatal on bad configuration. */
    void validate() const;
};

/**
 * Physical page address.
 *
 * Identifies a page by its position in the hierarchy plus the pool it
 * lives in. Multi-unit pages (8KB and larger) are addressed at page
 * granularity; the mapping layer tracks which 4KB unit inside the page
 * a logical unit occupies.
 */
struct PageAddr
{
    std::uint32_t channel = 0;
    std::uint32_t chip = 0;
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t pool = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    bool operator==(const PageAddr &o) const = default;
};

/** Linear plane index of @p a within @p g (row-major hierarchy order). */
std::uint32_t planeLinear(const Geometry &g, const PageAddr &a);

/** Linear die index of @p a within @p g. */
std::uint32_t dieLinear(const Geometry &g, const PageAddr &a);

/** Rebuild the hierarchical fields of a PageAddr from a linear plane. */
PageAddr addrFromPlaneLinear(const Geometry &g, std::uint32_t plane_linear);

/**
 * Address of physical page @p ppn of pool @p pool in linear plane
 * @p plane_linear (block and page split by the pool's block size).
 */
PageAddr pageAddr(const Geometry &g, std::uint32_t plane_linear,
                  std::uint32_t pool, units::PageNo ppn);

} // namespace emmcsim::flash

#endif // EMMCSIM_FLASH_GEOMETRY_HH
