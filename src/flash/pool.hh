/**
 * @file
 * BlockPool: the page/block state of one page-size pool inside a plane.
 *
 * A pool owns a fixed set of blocks that all share one physical page
 * size. Pages are tracked at 4KB-unit granularity so that multi-unit
 * pages (8KB in the HPS scheme) can be partially invalidated: when a
 * 4KB overwrite hits one half of an 8KB page, only that unit becomes
 * stale while the sibling unit stays readable.
 *
 * The pool implements the mechanics (write pointers, validity, erase
 * counts, free lists); policy (when to GC, which victim) lives in the
 * ftl module.
 *
 * Addressing is strongly typed (core/units.hh): logical units are
 * flash::Lpn (= units::UnitAddr), physical pages are flash::Ppn
 * (= units::PageNo), blocks are flash::BlockId. The only raw integer
 * in the interface is the *slot* — the 0..unitsPerPage-1 position of a
 * 4KB unit inside one physical page — which never leaves the pool's
 * own domain.
 */

#ifndef EMMCSIM_FLASH_POOL_HH
#define EMMCSIM_FLASH_POOL_HH

#include <cstdint>
#include <vector>

#include "core/binio.hh"
#include "core/units.hh"
#include "core/zero_array.hh"
#include "flash/geometry.hh"

namespace emmcsim::flash {

/** Logical page number of a 4KB mapping unit; kNoLpn when unmapped. */
using Lpn = units::UnitAddr;
constexpr Lpn kNoLpn = units::kNoUnit;

/** Physical page number within a pool: block * pagesPerBlock + page. */
using Ppn = units::PageNo;

/** Block index within one plane-pool. */
using BlockId = units::BlockId;

/** Page/block state for one pool of one plane. */
class BlockPool
{
  public:
    /**
     * @param cfg             Pool configuration (page size, block count).
     * @param pages_per_block Pages per block (Geometry::pagesPerBlock).
     */
    BlockPool(const PoolConfig &cfg, std::uint32_t pages_per_block);

    /** @name Static shape. @{ */
    std::uint32_t pageBytes() const { return pageBytes_; }
    std::uint32_t unitsPerPage() const { return unitsPerPage_; }
    std::uint32_t blockCount() const { return blocks_; }
    std::uint32_t pagesPerBlock() const { return pagesPerBlock_; }
    std::uint64_t pageCount() const;
    /** @} */

    /** @name Allocation. @{ */

    /** @return true when another page can be programmed. */
    bool hasFreePage() const;

    /** Number of fully erased blocks on the free list. */
    std::uint32_t freeBlockCount() const { return freeCount_; }

    /** Total unprogrammed pages (active block remainder + free blocks). */
    std::uint64_t freePageCount() const;

    /**
     * Take the next programmable page. Opens a new active block (the
     * free block with the lowest erase count — the paper's "simple
     * wear-leveling" of Implication 4) when the current one fills.
     * Panics when no free page exists; callers must GC first.
     *
     * @return The physical page number that the caller must program.
     */
    Ppn allocatePage();

    /** Block currently being filled, or -1 when none is open. */
    std::int32_t activeBlock() const { return active_; }
    /** @} */

    /** @name Unit state. @{ */

    /** Record that @p slot of page @p ppn now holds @p lpn (valid). */
    void setUnit(Ppn ppn, std::uint32_t slot, Lpn lpn);

    /** Mark @p slot of @p ppn stale. No-op counters stay consistent. */
    void invalidateUnit(Ppn ppn, std::uint32_t slot);

    /** @return lpn stored in the slot, or kNoLpn when never written. */
    Lpn lpnAt(Ppn ppn, std::uint32_t slot) const;

    /** @return true when the slot holds live data. */
    bool unitValid(Ppn ppn, std::uint32_t slot) const;

    /** Valid units remaining in page @p ppn. */
    std::uint32_t validUnitsInPage(Ppn ppn) const;
    /** @} */

    /** @name Block state. @{ */

    /** Valid units remaining in block @p b. */
    std::uint32_t validUnitsInBlock(BlockId b) const;

    /** Pages programmed so far in block @p b. */
    std::uint32_t writtenPages(BlockId b) const;

    /** @return true when every page of @p b has been programmed. */
    bool blockFull(BlockId b) const;

    /** Erase cycles block @p b has seen. */
    std::uint32_t eraseCount(BlockId b) const;

    /**
     * Age of block @p b: page-allocations elapsed since it was last
     * programmed. Cost-benefit GC victim selection favours old blocks
     * (their remaining valid data is cold and worth relocating).
     */
    std::uint64_t blockAge(BlockId b) const;

    /**
     * Erase block @p b: clears all unit state and returns the block to
     * the free list. Panics if live units remain (callers relocate
     * valid data first) or if the block is the active block.
     */
    void eraseBlock(BlockId b);
    /** @} */

    /** @name Reliability state (bad-block handling). @{ */

    /**
     * Flag @p b suspect after a program-status failure. Suspect blocks
     * stay readable (their already-programmed pages are intact) but
     * must not be reused: the GC scrub path relocates their survivors
     * and retires them instead of erasing.
     */
    void markSuspect(BlockId b);

    /** @return true when @p b carries the suspect flag. */
    bool blockSuspect(BlockId b) const;

    /**
     * Seal @p b: advance its write pointer to the end so no further
     * page lands in it (the block reads as "full"). Used after a
     * program failure on a partially-written block; if @p b is the
     * active block, the pool is left with no active block and the next
     * allocation opens a fresh one.
     */
    void sealBlock(BlockId b);

    /**
     * Retire @p b permanently (grown bad block): clears all unit state
     * like an erase but never returns the block to the free list — it
     * no longer counts toward free space and can never be allocated.
     * Panics if live units remain or the block is active or free.
     */
    void retireBlock(BlockId b);

    /** @return true when @p b has been retired. */
    bool blockRetired(BlockId b) const;

    /** Number of retired (grown bad) blocks in this pool. */
    std::uint32_t retiredBlockCount() const { return retiredCount_; }
    /** @} */

    /** @name Sudden-power-off state (DESIGN.md §13). @{ */

    /**
     * Stamp page @p ppn with a monotonically increasing write sequence.
     * Models the sequence number the FTL writes into the page's
     * out-of-band spare area together with the lpns; recovery uses it
     * to order multiple physical copies of the same logical unit.
     */
    void stampPageSeq(Ppn ppn, std::uint64_t seq);

    /** OOB sequence stamp of page @p ppn (0 = never stamped). */
    std::uint64_t pageSeq(Ppn ppn) const;

    /**
     * Model a program torn by power loss: the page keeps its write-
     * pointer slot (it was physically started) but its contents are
     * garbage — lpns revert to kNoLpn, the seq stamp and all valid
     * bits clear. Recovery's OOB scan skips it like an unwritten page.
     */
    void tearPage(Ppn ppn);

    /** Pages destroyed mid-program by power loss, cumulative. */
    std::uint64_t tornPages() const { return tornPages_; }

    /**
     * Drop all validity state ahead of an OOB recovery scan: the valid
     * bitmap is controller RAM and did not survive the power cut. The
     * on-flash lpns/seq stamps and per-block write pointers remain.
     */
    void beginRecoveryScan();

    /** Re-mark @p slot of @p ppn live (recovery scan winner). */
    void revalidateUnit(Ppn ppn, std::uint32_t slot);

    /**
     * Seal the active block (if any). After a power cut the FTL cannot
     * trust partially-programmed blocks for further appends, so
     * recovery closes them and starts fresh ones.
     */
    void sealOpenBlocks();
    /** @} */

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const;

    /**
     * Restore from @p r. Geometry must match the constructed shape;
     * mismatch marks the reader failed and leaves the pool unusable.
     */
    void load(core::BinReader &r);
    /** @} */

    /** @name Pool-wide statistics. @{ */
    std::uint64_t totalErases() const { return totalErases_; }
    std::uint64_t totalProgrammedPages() const { return programmed_; }
    std::uint64_t validUnitCount() const { return validUnits_; }
    /** Spread between max and min per-block erase counts. */
    std::uint32_t eraseSpread() const;
    /** @} */

    /** @name Audit support and test hooks. @{ */

    /** @return true when block @p b sits erased on the free list. */
    bool blockFree(BlockId b) const;

    /**
     * Test hook: overwrite one slot's raw state (stored lpn + valid
     * bit) without maintaining any counter, planting exactly the kind
     * of silent corruption the check/ subsystem must detect. Never
     * call outside tests.
     */
    void corruptUnitForTest(Ppn ppn, std::uint32_t slot, Lpn lpn,
                            bool valid);

    /** Test hook: skew the pool-wide valid-unit counter. */
    void corruptValidUnitsForTest(std::int64_t delta);

    /** Test hook: skew the free-block counter. */
    void corruptFreeCountForTest(std::int64_t delta);

    /** Test hook: raw retired flag without any state cleanup. */
    void corruptRetiredForTest(BlockId b, bool retired);
    /** @} */

  private:
    /** Pop the free block with the lowest erase count. */
    std::uint32_t takeFreeBlock();

    /** lpns_ encoding: lpn + 1, so kNoLpn is stored as 0. @{ */
    static std::int64_t encodeLpn(Lpn lpn) { return lpn.value() + 1; }
    static Lpn decodeLpn(std::int64_t v) { return Lpn{v - 1}; }
    /** @} */

    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /** Zero all unit state (lpns, valid bits, seq) of block @p b. */
    void clearBlockPages(BlockId b);

    /** Flat lpns_/valid_ index of @p ppn (audited domain exit). */
    std::size_t
    pageIndex(Ppn ppn) const
    {
        return static_cast<std::size_t>(ppn.value());
    }

    /** Internal block index of @p b (audited domain exit). */
    std::uint32_t
    blockIndex(BlockId b) const
    {
        return b.value();
    }

    std::uint32_t pageBytes_;
    std::uint32_t unitsPerPage_;
    std::uint32_t blocks_;
    std::uint32_t pagesPerBlock_;

    /**
     * @name Per-page tables on zero pages (core/zero_array.hh).
     * All-zero means unwritten, so a fresh pool touches no memory and
     * nothing writes zeros over an already-zero entry.
     * @{
     */
    /** lpn + 1 per (page, slot); flat, 0 when unwritten/erased. */
    core::ZeroArray<std::int64_t> lpns_;
    /** valid bitmask per page (bit u = slot u live). */
    core::ZeroArray<std::uint8_t> valid_;
    /** OOB write-sequence stamp per page (0 = unstamped). */
    core::ZeroArray<std::uint64_t> pageSeq_;
    /** @} */
    /** write pointer per block (pages programmed so far). */
    std::vector<std::uint32_t> writePtr_;
    /** live units per block. */
    std::vector<std::uint32_t> blockValid_;
    /** erase cycles per block. */
    std::vector<std::uint32_t> eraseCnt_;
    /** allocation sequence number of the last program per block. */
    std::vector<std::uint64_t> lastWriteSeq_;
    /** global allocation sequence counter. */
    std::uint64_t allocSeq_ = 0;
    /** true when the block is erased and on the free list. */
    std::vector<bool> isFree_;
    /** true after a program failure; await scrub + retirement. */
    std::vector<bool> suspect_;
    /** true for grown bad blocks; never allocated again. */
    std::vector<bool> retired_;

    std::uint32_t freeCount_ = 0;
    std::uint32_t retiredCount_ = 0;
    std::int32_t active_ = -1;

    std::uint64_t totalErases_ = 0;
    std::uint64_t programmed_ = 0;
    std::uint64_t validUnits_ = 0;
    std::uint64_t tornPages_ = 0;
};

} // namespace emmcsim::flash

#endif // EMMCSIM_FLASH_POOL_HH
