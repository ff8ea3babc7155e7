/**
 * @file
 * MetaJournal: the FTL's crash-consistency gateway (DESIGN.md §13).
 *
 * Every durable-metadata mutation — mapping a unit, relocating it,
 * erasing or retiring a block — flows through this class and nothing
 * else (enforced by the emmclint `durable-ftl-mutation` rule). Each
 * mutation appends one journal record with a globally monotonic
 * sequence number; the same number is stamped into the programmed
 * page's out-of-band spare area by the caller, which is what lets
 * power-up recovery order multiple physical copies of a logical unit
 * without reading any data.
 *
 * The journal models the metadata stream of a real eMMC controller:
 * records accumulate in a RAM page buffer and reach flash only when
 * the buffer fills (`recordsPerPage`), a flush barrier forces it out,
 * or a checkpoint rewrites the whole table. Because page programs for
 * host data already carry the (lpn, seq) tuples in their OOB area, the
 * journal stream itself costs no additional latency on the data path —
 * it is pure accounting that determines (a) how many metadata pages
 * power-up recovery must read back (the recovery-time cost model) and
 * (b) that a block retirement survives any power cut.
 */

#ifndef EMMCSIM_FTL_JOURNAL_HH
#define EMMCSIM_FTL_JOURNAL_HH

#include <cstdint>

#include "ftl/mapping.hh"
#include "sim/types.hh"

namespace emmcsim::ftl {

/** Journal/checkpoint protocol parameters. */
struct JournalConfig
{
    /** Mapping records per on-flash journal page. */
    std::uint32_t recordsPerPage = 512;
    /**
     * A checkpoint (full table rewrite) after this many records keeps
     * the replay segment short at the cost of periodic metadata
     * programs.
     */
    std::uint32_t checkpointEveryRecords = 1u << 16;
};

/** Journal activity counters (obs + audit). */
struct JournalStats
{
    std::uint64_t writeRecords = 0; ///< host/prefill unit mappings
    std::uint64_t relocRecords = 0; ///< GC/scrub unit relocations
    std::uint64_t eraseRecords = 0;
    std::uint64_t retireRecords = 0;
    std::uint64_t pagesFlushed = 0;   ///< full journal pages to flash
    std::uint64_t barrierFlushes = 0; ///< partial pages forced out
    std::uint64_t checkpoints = 0;
};

/** The sole mutator of durable FTL metadata. */
class MetaJournal
{
  public:
    /**
     * @param map Mapping table this journal guards (must outlive it).
     * @param cfg Protocol parameters.
     */
    MetaJournal(PageMap &map, const JournalConfig &cfg);

    /** @name Mutation records. Each returns its sequence number. @{ */

    /** Map @p lpn to @p e (host write or prefill install). */
    std::uint64_t recordWrite(flash::Lpn lpn, const MapEntry &e);

    /** Re-map @p lpn to @p e (GC/scrub relocation). */
    std::uint64_t recordRelocation(flash::Lpn lpn, const MapEntry &e);

    /**
     * Note a block erase completing at @p done. An erase whose
     * completion lies beyond a power cut is re-run at power-up (the
     * block state already reads as erased; only time is charged).
     */
    void recordErase(sim::Time done);

    /**
     * Note a block retirement. Spare accounting must survive any
     * crash, so the record is made durable immediately (barrier).
     */
    void recordRetire();
    /** @} */

    /**
     * Flush barrier: force the open journal page to flash. After this
     * returns, every record issued so far survives power loss.
     */
    void flushBarrier();

    /**
     * Checkpoint: rewrite the full mapping table to flash and truncate
     * the journal. Implies a flush barrier.
     */
    void checkpoint();

    /** @name Power-loss transitions (called by recovery only). @{ */

    /** Clear the mapping table ahead of the recovery rebuild. */
    void resetMapForRecovery();

    /** Install one recovered winner into the mapping table. */
    void installRecovered(flash::Lpn lpn, const MapEntry &e);
    /** @} */

    /** @name Introspection. @{ */

    /** Highest sequence number issued so far (0 = none). */
    std::uint64_t seq() const { return seq_; }

    /** Highest sequence number guaranteed on flash. */
    std::uint64_t durableSeq() const { return durableSeq_; }

    /** Records buffered in the open (unflushed) journal page. */
    std::uint32_t openPageRecords() const { return openRecords_; }

    /** Journal pages on flash since the last checkpoint. */
    std::uint64_t pagesSinceCheckpoint() const
    {
        return pagesSinceCheckpoint_;
    }

    /** Pages the last checkpoint image occupies on flash. */
    std::uint64_t checkpointPages() const { return checkpointPages_; }

    /** Completion time of the most recent erase (0 = none). */
    sim::Time lastEraseDone() const { return lastEraseDone_; }

    const JournalConfig &config() const { return cfg_; }
    const JournalStats &stats() const { return stats_; }
    /** @} */

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /** Append one record: bump seq, flush the page when it fills. */
    std::uint64_t append();

    PageMap &map_;
    JournalConfig cfg_;
    JournalStats stats_;

    std::uint64_t seq_ = 0;
    std::uint64_t durableSeq_ = 0;
    std::uint32_t openRecords_ = 0;
    std::uint64_t recordsSinceCheckpoint_ = 0;
    std::uint64_t pagesSinceCheckpoint_ = 0;
    std::uint64_t checkpointPages_ = 0;
    sim::Time lastEraseDone_ = 0;
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_JOURNAL_HH
