/**
 * @file
 * RamBuffer: the controller's RAM cache (Implication 3).
 *
 * The paper argues that weak spatial/temporal locality makes a large
 * RAM buffer inside an eMMC device unprofitable. This LRU unit cache
 * lets the ablation benches measure exactly that: hit rate versus
 * buffer size under the observed localities. The case-study replays
 * disable it, as the paper does.
 *
 * The cache tracks 4KB units. Writes insert dirty units; reads probe
 * for hits. Capacity overflow evicts least-recently-used units; dirty
 * evictions are returned to the caller as contiguous runs so the
 * device can time their flush to flash.
 */

#ifndef EMMCSIM_EMMC_RAM_BUFFER_HH
#define EMMCSIM_EMMC_RAM_BUFFER_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/binio.hh"
#include "flash/pool.hh"

namespace emmcsim::emmc {

/** RAM buffer configuration. */
struct BufferConfig
{
    bool enabled = false;
    /** Capacity in 4KB units (e.g. 256 units == 1MB). */
    std::uint64_t capacityUnits = 256;
    /** Insert read misses (clean) so re-reads can hit. */
    bool readAllocate = true;
};

/** Hit/miss counters. */
struct BufferStats
{
    std::uint64_t readLookups = 0;
    std::uint64_t readHits = 0;
    std::uint64_t writeLookups = 0;
    std::uint64_t writeHits = 0; ///< overwrite of a cached unit
    std::uint64_t evictedDirty = 0;

    double readHitRate() const
    {
        return readLookups
                   ? static_cast<double>(readHits) /
                         static_cast<double>(readLookups)
                   : 0.0;
    }
};

/** A contiguous run of logical units. */
struct UnitRun
{
    flash::Lpn first{0};
    std::uint32_t count = 0;
};

/** LRU write-back cache of 4KB units. */
class RamBuffer
{
  public:
    explicit RamBuffer(const BufferConfig &cfg);

    bool enabled() const { return cfg_.enabled; }

    /**
     * Insert @p n units at @p first as dirty.
     * @param evicted Receives contiguous runs of dirty units evicted
     *        to make room; the caller must flush them to flash.
     */
    void write(flash::Lpn first, std::uint32_t n,
               std::vector<UnitRun> &evicted);

    /**
     * Probe @p n units at @p first.
     * @param misses  Receives contiguous runs that must be read from
     *        flash. Hits refresh LRU position. With readAllocate the
     *        missed units are inserted clean.
     * @param evicted Receives dirty runs displaced by read allocation.
     * @return Number of units that hit.
     */
    std::uint32_t read(flash::Lpn first, std::uint32_t n,
                       std::vector<UnitRun> &misses,
                       std::vector<UnitRun> &evicted);

    /**
     * Evict everything; dirty units are returned as runs.
     */
    void flushAll(std::vector<UnitRun> &evicted);

    /**
     * Drop every cached unit with no write-back: RAM contents vanish
     * with the power rail on a sudden power-off.
     * @return Number of dirty units lost (acknowledged data that never
     *         reached flash — the cost of running write-back caching
     *         without a flush barrier).
     */
    std::uint64_t discardAll();

    /** @name Snapshot (full LRU contents, most-recent first). @{ */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

    std::size_t residentUnits() const { return map_.size(); }
    const BufferStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        flash::Lpn lpn;
        bool dirty;
    };
    using LruList = std::list<Entry>;

    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /** Insert or refresh one unit. Appends dirty evictions. */
    void touch(flash::Lpn lpn, bool dirty, std::vector<flash::Lpn> &out);

    /** Coalesce sorted unit list into contiguous runs. */
    static void runsFromUnits(std::vector<flash::Lpn> &units,
                              std::vector<UnitRun> &runs);

    BufferConfig cfg_;
    BufferStats stats_;
    LruList lru_; ///< front = most recent
    std::unordered_map<flash::Lpn, LruList::iterator> map_;
};

} // namespace emmcsim::emmc

#endif // EMMCSIM_EMMC_RAM_BUFFER_HH
