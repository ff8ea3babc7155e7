/**
 * @file
 * BadBlockManager: the FTL's grown-bad-block table and spare budget.
 *
 * Factory bad blocks aside, NAND grows bad blocks over life: a program
 * failure marks its block suspect (retired once scrubbed empty), an
 * erase failure retires its block outright. Each retirement consumes
 * one block of the per-plane-pool spare budget; when any plane-pool
 * exhausts its spares — or the FTL runs out of reclaimable space —
 * the device degrades to read-only instead of dying: reads keep
 * working, writes fail with a structured error the host can act on.
 */

#ifndef EMMCSIM_FTL_BADBLOCK_HH
#define EMMCSIM_FTL_BADBLOCK_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/binio.hh"
#include "core/units.hh"

namespace emmcsim::ftl {

/** Why a block was retired. */
enum class RetireCause : std::uint8_t
{
    ProgramFail, ///< program-status failure, scrubbed then retired
    EraseFail,   ///< erase failure, retired on the spot
};

/** Why the device stopped accepting writes. */
enum class ReadOnlyCause : std::uint8_t
{
    None,            ///< still writable
    SpareExhaustion, ///< a plane-pool retired more blocks than spares
    SpaceExhaustion, ///< no pool takes the write, or GC has no room
};

/** One grown-bad-block table entry. */
struct BadBlockEntry
{
    std::uint32_t planeLinear = 0;
    std::uint32_t pool = 0;
    std::uint32_t block = 0;
    RetireCause cause = RetireCause::EraseFail;
    // Snapshot images store the table as raw bytes, so the padding is
    // spelled out and zeroed; implicit padding would carry whatever
    // the heap held before.
    std::uint8_t pad[3] = {};
};
static_assert(sizeof(BadBlockEntry) == 16 &&
                  std::has_unique_object_representations_v<BadBlockEntry>,
              "BadBlockEntry is snapshot layout v1: 16 bytes, no "
              "implicit padding");

/** Spare-budget configuration. */
struct BbmConfig
{
    /**
     * Retired blocks each plane-pool tolerates before the device goes
     * read-only. Real eMMC parts reserve a few percent of blocks as
     * spares; the default matches the scaled-down test geometries.
     */
    std::uint32_t spareBlocksPerPlanePool = 8;
};

/** Reliability-event counters. */
struct BbmStats
{
    std::uint64_t programFailures = 0; ///< program-status failures seen
    std::uint64_t eraseFailures = 0;   ///< erase failures seen
    std::uint64_t relocatedPrograms = 0; ///< pages re-issued after a fail
    std::uint64_t retiredProgram = 0;  ///< blocks retired (program path)
    std::uint64_t retiredErase = 0;    ///< blocks retired (erase path)
};

/** Grown-bad-block bookkeeping for one device. */
class BadBlockManager
{
  public:
    /**
     * @param planes Plane count of the managed array.
     * @param pools  Page-size pools per plane.
     * @param cfg    Spare budget.
     */
    BadBlockManager(std::uint32_t planes, std::uint32_t pools,
                    const BbmConfig &cfg);

    /** @name Event accounting (no state transition). @{ */
    void noteProgramFailure() { ++stats_.programFailures; }
    void noteEraseFailure() { ++stats_.eraseFailures; }
    void noteRelocatedProgram() { ++stats_.relocatedPrograms; }
    /** @} */

    /**
     * Record that (plane, pool, block) was retired. Transitions the
     * device to read-only when the plane-pool's spare budget is spent.
     */
    void recordRetirement(std::uint32_t plane_linear, std::uint32_t pool,
                          units::BlockId block, RetireCause cause);

    /** Retired blocks in one plane-pool. */
    std::uint32_t retiredCount(std::uint32_t plane_linear,
                               std::uint32_t pool) const;

    /** Retired blocks device-wide. */
    std::uint64_t totalRetired() const { return table_.size(); }

    /** @return true once the device stopped accepting writes. */
    bool readOnly() const
    {
        return readOnlyCause_ != ReadOnlyCause::None;
    }

    ReadOnlyCause readOnlyCause() const { return readOnlyCause_; }

    /**
     * Declare the FTL out of space: no pool can take the write, or a
     * blocking GC round ran out of pages to relocate into. The
     * graceful-degradation replacement for dying on a full device.
     */
    void declareSpaceExhausted();

    /** The grown-bad-block table, in retirement order. */
    const std::vector<BadBlockEntry> &table() const { return table_; }

    const BbmConfig &config() const { return cfg_; }
    const BbmStats &stats() const { return stats_; }

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    BbmConfig cfg_;
    std::uint32_t pools_;
    /** Retired count per (plane, pool), flattened plane-major. */
    std::vector<std::uint32_t> retired_;
    std::vector<BadBlockEntry> table_;
    BbmStats stats_;
    ReadOnlyCause readOnlyCause_ = ReadOnlyCause::None;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_BADBLOCK_HH
