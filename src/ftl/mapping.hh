/**
 * @file
 * PageMap: logical-to-physical mapping at 4KB-unit granularity.
 *
 * Every logical page number (LPN, one 4KB unit) maps to a physical
 * location (plane, pool, physical page, unit-within-page). Multi-unit
 * physical pages (8KB) hold two adjacent mapping entries pointing at
 * the same page with different unit slots, which is the essence of the
 * HPS design: the map does not force page size to be uniform.
 */

#ifndef EMMCSIM_FTL_MAPPING_HH
#define EMMCSIM_FTL_MAPPING_HH

#include <cstdint>

#include "core/zero_array.hh"
#include "flash/pool.hh"

namespace emmcsim::ftl {

/** Physical location of one logical 4KB unit. */
struct MapEntry
{
    std::int32_t planeLinear = -1; ///< -1 when unmapped
    std::uint16_t pool = 0;
    std::uint16_t unit = 0;        ///< 4KB slot within the page
    flash::Ppn ppn{0};

    bool mapped() const { return planeLinear >= 0; }
    bool operator==(const MapEntry &o) const = default;
};

/**
 * Flat LPN -> MapEntry table on zero pages (core/zero_array.hh).
 *
 * Each slot stores its entry with planeLinear + 1, so an all-zero slot
 * is exactly MapEntry{} (unmapped) and a fresh map touches no memory.
 * The encoding stays inside this class: lookup() and the snapshot
 * image see plain MapEntry values.
 */
class PageMap
{
  public:
    /** @param logical_units Number of exported 4KB logical units. */
    explicit PageMap(std::uint64_t logical_units);

    /** Number of exported logical units. */
    std::uint64_t logicalUnits() const { return entries_.size(); }

    /** @return true when @p lpn has a physical location. */
    bool mapped(flash::Lpn lpn) const;

    /** Current location of @p lpn (entry.mapped() may be false). */
    MapEntry lookup(flash::Lpn lpn) const;

    /** Point @p lpn at a new physical location. */
    void set(flash::Lpn lpn, const MapEntry &e);

    /** Count of currently mapped units. */
    std::uint64_t mappedCount() const { return mappedCount_; }

    /**
     * Drop every mapping. Power-fail recovery rebuilds the table from
     * scratch out of the flash OOB scan (DESIGN.md §13); the pre-crash
     * RAM copy is exactly what did not survive. The table's pages go
     * back to the kernel rather than being filled.
     */
    void reset();

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /** Slot index of @p lpn; asserts it is in range. */
    std::size_t slot(flash::Lpn lpn) const;

    /** Entries with planeLinear shifted by one (0 = unmapped). */
    core::ZeroArray<MapEntry> entries_;
    std::uint64_t mappedCount_ = 0;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_MAPPING_HH
