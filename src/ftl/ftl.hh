/**
 * @file
 * Ftl: the flash translation layer facade used by the eMMC controller.
 *
 * The FTL exports a flat space of 4KB logical units (a slice of the raw
 * capacity, the rest being over-provisioning), maps them onto physical
 * pages through PageMap, places writes with PlaneAllocator, and keeps
 * free space ahead of demand with GarbageCollector.
 *
 * The controller hands the FTL *page groups*: a run of logical units
 * that fills one physical page of a chosen pool. The FTL reads the
 * split of a block request into page groups off its geometry
 * (WriteSplit, ftl/distributor.hh): 4PS, 8PS and HPS differ only in
 * their pool layout.
 */

#ifndef EMMCSIM_FTL_FTL_HH
#define EMMCSIM_FTL_FTL_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "flash/array.hh"
#include "ftl/allocator.hh"
#include "ftl/badblock.hh"
#include "ftl/distributor.hh"
#include "ftl/gc.hh"
#include "ftl/journal.hh"
#include "ftl/mapping.hh"
#include "ftl/recovery.hh"
#include "sim/types.hh"

namespace emmcsim::ftl {

/** FTL configuration. */
struct FtlConfig
{
    /** Write-placement policy. */
    AllocPolicy alloc = AllocPolicy::RoundRobin;
    /** Garbage-collection thresholds. */
    GcConfig gc;
    /** Grown-bad-block spare budget. */
    BbmConfig bbm;
    /** Mapping journal/checkpoint protocol (crash consistency). */
    JournalConfig journal;
    /** Fraction of raw capacity reserved as over-provisioning. */
    double opRatio = 0.07;
};

/** Host-visible FTL counters. */
struct FtlStats
{
    std::uint64_t hostUnitsWritten = 0;  ///< 4KB units of host data
    std::uint64_t hostBytesConsumed = 0; ///< flash bytes used for them
    std::uint64_t hostUnitsRead = 0;
    std::uint64_t hostReadOps = 0;    ///< physical page reads issued
    std::uint64_t hostProgramOps = 0; ///< physical page programs issued
    /** Write groups redirected because their pool was exhausted. */
    std::uint64_t overflowRedirects = 0;
    /** Host pages re-issued to a fresh block after a program failure. */
    std::uint64_t relocatedPrograms = 0;
    /** Page reads that remained uncorrectable after the retry ladder. */
    std::uint64_t uncorrectableReads = 0;
    /** Write groups rejected because the device is read-only. */
    std::uint64_t rejectedWrites = 0;
};

/**
 * Critical-chain decomposition of one FTL call's elapsed time.
 *
 * The breakdown follows the operation whose completion determined the
 * call's returned `done` time (ties keep the first); overlapping work
 * on other channels/planes does not extend the chain and is not
 * charged. Invariant (the attribution ledger's conservation fence,
 * DESIGN.md §14): the fields sum exactly to `done − earliest`.
 */
struct FlashBreakdown
{
    /** Blocking garbage collection before placement (writes). */
    sim::Time gcStall = 0;
    /** Channel contention before the transfer. */
    sim::Time busWait = 0;
    /** Channel occupancy (command cycles + data transfer). */
    sim::Time busXfer = 0;
    /** Array-unit contention before the cell operation. */
    sim::Time nandWait = 0;
    /** Cell time: base sense (reads) or program (writes). */
    sim::Time nandCell = 0;
    /** Retry-ladder share of the sensing time (reads). */
    sim::Time retry = 0;
    /** Program-failure relocation re-issues (writes). */
    sim::Time reloc = 0;

    sim::Time
    total() const
    {
        return gcStall + busWait + busXfer + nandWait + nandCell +
               retry + reloc;
    }
};

/** Timed outcome of one write group. */
struct WriteResult
{
    /** Completion time of the program (== earliest when rejected). */
    sim::Time done = 0;
    /** False when the device is read-only and the data did not land. */
    bool accepted = true;
    /** Critical-chain split of done − earliest (attribution feed). */
    FlashBreakdown chain;
};

/** Timed outcome of one multi-unit read. */
struct ReadResult
{
    /** Completion time of the last page read. */
    sim::Time done = 0;
    /** Page reads whose data was lost (ECC + retry ladder failed). */
    std::uint32_t uncorrectablePages = 0;
    /** Critical-chain split of done − earliest (attribution feed). */
    FlashBreakdown chain;
};

/** The flash translation layer. */
class Ftl
{
  public:
    /**
     * @param array Flash array this FTL manages (must outlive the FTL).
     * @param cfg   Configuration.
     */
    Ftl(flash::FlashArray &array, const FtlConfig &cfg);

    /** Number of exported logical 4KB units. */
    std::uint64_t logicalUnits() const { return map_.logicalUnits(); }

    /**
     * Write one physical page of pool @p pool holding the @p count
     * units from @p first.
     *
     * The group may be smaller than the page's unit capacity; the
     * remainder of the page is padding (wasted space), which is how a
     * pure-8KB device loses utilization on odd-sized requests.
     *
     * A program-status failure re-issues the page to a fresh block
     * and marks the failed one suspect; a read-only device (spares or
     * space exhausted) rejects the group instead of panicking.
     *
     * @param pool     Target page-size pool.
     * @param first    First logical unit stored in the page.
     * @param count    Units stored in the page (1..unitsPerPage).
     * @param earliest Earliest start time for the flash operations.
     * @return Completion time (after any blocking GC) and whether the
     *         data landed.
     */
    WriteResult writeGroup(std::uint32_t pool, flash::Lpn first,
                           std::uint32_t count, sim::Time earliest);

    /**
     * Read @p n logical units starting at @p start.
     *
     * Units sharing a physical page are fetched with a single page
     * read. Unmapped units (data written before the trace began) are
     * timed as if writeSplit() had laid them out.
     *
     * @return Completion time of the last page read plus the count of
     *         uncorrectable page reads (lost data) among them.
     */
    ReadResult readUnits(flash::Lpn start, std::uint32_t n,
                         sim::Time earliest);

    /**
     * State-only page install used to pre-age a device before a
     * replay: places the group like writeGroup but charges no flash
     * time and no host-write accounting, and never garbage-collects.
     *
     * @retval true  The group was installed.
     * @retval false The pool has no room left outside the GC reserve
     *         (the caller may skip this group; an aged device's full
     *         region simply stays full).
     */
    bool installGroup(std::uint32_t pool, flash::Lpn first,
                      std::uint32_t count);

    /**
     * Run a single incremental idle-GC step (a few page relocations,
     * possibly an erase). The device calls this once per idle tick so
     * an arriving request waits at most one step.
     *
     * @param did_work Set true when the step did anything.
     * @return Completion time (== @p now when idle GC is satisfied).
     */
    sim::Time idleGcStep(sim::Time now, bool &did_work);

    /** @return true once the device stopped accepting writes. */
    bool readOnly() const { return bbm_.readOnly(); }

    /**
     * Cache-flush barrier: force all journal records to flash. After
     * this returns, every journal record issued so far is on flash.
     * Recovery rebuilds mappings from the OOB stamps, so the barrier
     * changes only the journal pages a power-up reads back.
     */
    void flushBarrier();

    /**
     * Model a sudden power-off at @p crash_time followed by power-up
     * recovery (DESIGN.md §13): tear the in-flight host program (if
     * its flash operation had not completed by the cut), rebuild the
     * mapping table in one pass over the out-of-band (lpn, seq) stamps
     * of all written pages, seal open blocks, reset volatile placement
     * state, re-run interrupted erases, and write a fresh checkpoint.
     * The report carries a flash-time cost model the device charges
     * before serving requests again.
     */
    RecoveryReport powerFailAndRecover(sim::Time crash_time);

    /**
     * Declare all in-flight host programs complete: a power-off
     * notification gives the device time to finish the open page, so
     * a subsequent powerFailAndRecover() tears nothing. Part of the
     * graceful-shutdown path only.
     */
    void markProgramsSettled() { lastHostProgram_.valid = false; }

    /** Grown-bad-block bookkeeping. */
    const BadBlockManager &badBlocks() const { return bbm_; }

    /** Crash-consistency journal (durable-metadata gateway). */
    const MetaJournal &journal() const { return journal_; }
    MetaJournal &journal() { return journal_; }

    const FtlStats &stats() const { return stats_; }
    const GcStats &gcStats() const { return gc_.stats(); }
    const PageMap &map() const { return map_; }
    flash::FlashArray &array() { return array_; }
    const flash::FlashArray &array() const { return array_; }
    const FtlConfig &config() const { return cfg_; }
    /** The page split of host writes, read off the geometry. */
    const WriteSplit &writeSplit() const { return split_; }

    /**
     * Test hook: mutable access to the page map so tests can plant
     * mapping corruptions for the check/ subsystem to catch. Never
     * call outside tests.
     */
    PageMap &mapForTest() { return map_; }

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /**
     * Land the @p count units from @p first in page @p ppn of (plane,
     * pool), unit first+u in slot u: stale their old copies, fill the
     * slots, journal each write and stamp the page's out-of-band
     * sequence number.
     */
    void placeUnits(std::uint32_t plane, std::uint32_t pool,
                    flash::Ppn ppn, flash::Lpn first, std::uint32_t count);

    static std::uint64_t exportedUnits(const flash::FlashArray &array,
                                       double op_ratio);

    flash::FlashArray &array_;
    FtlConfig cfg_;
    WriteSplit split_;
    PageMap map_;
    PlaneAllocator alloc_;
    BadBlockManager bbm_;  ///< must precede gc_ (GC holds a reference)
    MetaJournal journal_;  ///< must precede gc_ (GC holds a reference)
    GarbageCollector gc_;
    FtlStats stats_;

    /** A physical page a read touches, and how many of its units. */
    struct ReadGroup
    {
        std::uint32_t plane;
        std::uint32_t pool;
        flash::Ppn ppn;
        std::uint32_t units;
    };
    std::vector<ReadGroup> readGroups_; ///< readUnits scratch, reused

    /**
     * The host page program most recently issued to the array. Flash
     * state mutates eagerly at issue time, so a power cut landing
     * before the program's completion time must undo it: recovery
     * tears exactly this page. GC copyback programs follow the
     * relocate-then-erase discipline and are crash-atomic by
     * construction (both copies exist until the erase), so only host
     * programs are tracked.
     */
    struct LastHostProgram
    {
        bool valid = false;
        // Snapshot images store this struct as raw bytes, so its
        // padding is spelled out and zeroed; implicit padding would
        // carry whatever the heap held before.
        std::uint8_t pad0[3] = {};
        std::uint32_t planeLinear = 0;
        std::uint32_t pool = 0;
        std::uint32_t pad1 = 0;
        flash::Ppn ppn{0};
        sim::Time done = 0;
    };
    static_assert(sizeof(LastHostProgram) == 32 &&
                      std::has_unique_object_representations_v<
                          LastHostProgram>,
                  "LastHostProgram is snapshot layout v1: 32 bytes, no "
                  "implicit padding");
    LastHostProgram lastHostProgram_;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_FTL_HH
