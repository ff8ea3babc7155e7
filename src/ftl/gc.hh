/**
 * @file
 * Garbage collector: greedy victim selection with block compaction.
 *
 * Two triggers exist, mirroring the paper's Implication 2:
 *  - blocking GC: the write path calls ensureFreePage() and pays the
 *    reclamation latency inline, like a conventional SSD FTL;
 *  - idle GC: the eMMC controller calls idleStep() during request
 *    gaps (smartphone inter-arrival times are frequently longer than a
 *    full GC round), hiding reclamation from the user in preemptible
 *    steps of a few pages.
 */

#ifndef EMMCSIM_FTL_GC_HH
#define EMMCSIM_FTL_GC_HH

#include <cstdint>
#include <optional>

#include "flash/array.hh"
#include "ftl/badblock.hh"
#include "ftl/journal.hh"
#include "ftl/mapping.hh"
#include "sim/types.hh"

namespace emmcsim::ftl {

/** Victim-selection policies. */
enum class GcVictimPolicy
{
    /** Fewest valid units (min relocation work right now). */
    Greedy,
    /**
     * Cost-benefit: maximize age * invalid / (2 * valid). Prefers
     * older blocks whose surviving data is cold, reducing repeated
     * relocation of hot data under skewed workloads.
     */
    CostBenefit,
};

/** Garbage-collection thresholds (per plane-pool, in blocks). */
struct GcConfig
{
    /** Blocking GC keeps at least this many free blocks. */
    std::uint32_t hardFreeBlocks = 2;
    /** Idle GC works toward this many free blocks. */
    std::uint32_t softFreeBlocks = 8;
    /** Victim-selection policy. */
    GcVictimPolicy victimPolicy = GcVictimPolicy::Greedy;
    /**
     * Idle GC only touches victims whose invalid fraction is at least
     * this large. Without the guard, a device whose live data simply
     * exceeds the soft watermark would grind forever relocating
     * almost-fully-valid blocks for no net gain.
     */
    double idleMinInvalidFraction = 0.15;
    /**
     * Pages relocated per incremental idle-GC step. Small steps keep
     * the reclamation preemptible: an arriving request waits at most
     * one step, not a whole block collection.
     */
    std::uint32_t idleStepPages = 8;
};

/** Counters describing reclamation work done so far. */
struct GcStats
{
    std::uint64_t blockingRounds = 0;
    /** Always 0 (idle GC runs in steps); kept for snapshot layout v1. */
    std::uint64_t idleRounds = 0;
    std::uint64_t idleSteps = 0;
    std::uint64_t relocatedUnits = 0;
    std::uint64_t erasedBlocks = 0;
    /** Blocks retired instead of erased (grown bad blocks). */
    std::uint64_t retiredBlocks = 0;
    /** Incremental scrub steps draining suspect blocks. */
    std::uint64_t scrubSteps = 0;
    sim::Time blockingTime = 0; ///< flash time spent in blocking GC
    sim::Time idleTime = 0;     ///< flash time spent in idle GC
};

/** Greedy garbage collector over all plane-pools of a flash array. */
class GarbageCollector
{
  public:
    /**
     * @param array   Flash array (state + timing).
     * @param map     Page map consulted as units are relocated.
     * @param cfg     Thresholds.
     * @param bbm     Grown-bad-block bookkeeping (shared with the FTL).
     * @param journal Durable-metadata gateway: every relocation,
     *        erase, and retirement is recorded through it so the
     *        mapping stays crash-consistent.
     */
    GarbageCollector(flash::FlashArray &array, PageMap &map, GcConfig cfg,
                     BadBlockManager &bbm, MetaJournal &journal);

    /**
     * Make sure pool @p pool of plane @p plane_linear can allocate a
     * page, running blocking GC rounds when the free-block count falls
     * below the hard threshold. When erase failures eat the reserve
     * faster than GC can rebuild it, the loop stops once no victim
     * remains; a round that runs out of relocation space stops it too
     * and declares the device out of space (read-only). Callers must
     * re-check hasFreePage() before allocating.
     *
     * @param earliest Earliest time the GC flash operations may start.
     * @return Completion time of any GC work (== @p earliest if none).
     */
    sim::Time ensureFreePage(std::uint32_t plane_linear,
                             std::uint32_t pool, sim::Time earliest);

    /**
     * Run one *incremental* idle GC step: relocate up to
     * idleStepPages valid pages out of the current victim of the
     * neediest pool, erasing the victim once it drains. Steps are a
     * few milliseconds, so background reclamation never holds up an
     * arriving request for long.
     *
     * @param earliest  Earliest start for the flash operations.
     * @param did_work  Set true when the step did anything.
     * @return Completion time (== @p earliest when nothing ran).
     */
    sim::Time idleStep(sim::Time earliest, bool &did_work);

    /**
     * @return true when pool @p pool of plane @p plane_linear holds a
     *         victim whose collection would net free space.
     */
    bool canReclaim(std::uint32_t plane_linear, std::uint32_t pool) const;

    const GcConfig &config() const { return cfg_; }
    const GcStats &stats() const { return stats_; }

    /** @name Snapshot image (counters only; no other state). @{ */
    void save(core::BinWriter &w) const { fields(*this, w); }
    void load(core::BinReader &r) { fields(*this, r); }
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void
    fields(Self &self, IO &io)
    {
        io.pod(self.stats_);
    }

    /**
     * Pick the victim block in @p pool: a full, non-active block with
     * the fewest valid units.
     * @return Block index, or -1 when no eligible victim exists.
     */
    std::int32_t pickVictim(const flash::BlockPool &pool) const;

    /**
     * Collect one block in (plane, pool): relocate live units within
     * the plane using copyback, then erase the victim. When the pool
     * runs out of free pages mid-relocation the round ends early, the
     * victim keeps its remaining live units and @p reclaimed is false.
     * @return Completion time of the erase (or of the last relocation
     *         when the round ended early).
     */
    sim::Time collectOne(std::uint32_t plane_linear, std::uint32_t pool,
                         sim::Time earliest, bool &reclaimed);

    /**
     * Find the neediest plane-pool below the soft watermark with an
     * eligible victim.
     * @param min_invalid Minimum invalid fraction a victim must have.
     * @retval true when @p plane_out / @p pool_out were set.
     */
    bool findNeedyPool(double min_invalid, std::uint32_t &plane_out,
                       std::uint32_t &pool_out) const;

    /**
     * Relocate up to @p max_pages valid pages from @p victim of the
     * given plane-pool; erase (or retire) it when no valid units
     * remain.
     * @return Completion time of the last flash operation.
     */
    sim::Time relocateSome(std::uint32_t plane_linear,
                           std::uint32_t pool, flash::BlockId victim,
                           std::uint32_t max_pages, sim::Time earliest);

    /**
     * Allocate a destination page and copyback-program it, re-issuing
     * the program to a fresh page (and flagging the failed block
     * suspect) on a program-status failure.
     *
     * @param t In/out flash-time cursor.
     * @return The physical page the data finally landed in, or
     *         nullopt when the pool has no free page left for it.
     */
    std::optional<flash::Ppn>
    copybackProgramChecked(std::uint32_t plane_linear, std::uint32_t pool,
                           sim::Time &t);

    /**
     * Move the live unit in slot @p src_unit of page @p src to slot
     * @p dst_unit of page @p dst in the same plane-pool: stale the
     * source, fill the destination, journal the relocation and stamp
     * the destination page's out-of-band sequence number.
     */
    void relocateUnit(std::uint32_t plane_linear, std::uint32_t pool,
                      flash::Ppn src, std::uint32_t src_unit,
                      flash::Ppn dst, std::uint32_t dst_unit);

    /**
     * Reclaim drained block @p b: attempt the erase and either return
     * the block to the free list or — on an erase failure or a
     * suspect flag — retire it into the grown-bad-block table.
     * @return Completion time of the erase attempt.
     */
    sim::Time reclaimBlock(std::uint32_t plane_linear, std::uint32_t pool,
                           flash::BlockId b, sim::Time earliest);

    /**
     * One incremental scrub step: find a full suspect block whose pool
     * still has relocation room, move up to idleStepPages of its live
     * pages, and retire it once empty.
     * @param did_work Set true when the step did anything.
     * @return Completion time (== @p earliest when nothing ran).
     */
    sim::Time scrubStep(sim::Time earliest, bool &did_work);

    flash::FlashArray &array_;
    PageMap &map_;
    GcConfig cfg_;
    BadBlockManager &bbm_;
    MetaJournal &journal_;
    GcStats stats_;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_GC_HH
