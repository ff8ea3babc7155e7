/**
 * @file
 * WritePacker: eMMC 4.5 packed-command policy.
 *
 * The eMMC driver's packing function "merges multiple write requests
 * into a large one if possible" (Fig 2). Packing amortizes the fixed
 * per-command cost, which is why Fig 3's write throughput keeps
 * climbing out to 16MB requests even though the Linux block layer caps
 * a single request at 512KB.
 */

#ifndef EMMCSIM_EMMC_PACKING_HH
#define EMMCSIM_EMMC_PACKING_HH

#include <cstdint>
#include <functional>

#include "core/binio.hh"
#include "emmc/request.hh"
#include "sim/logging.hh"

namespace emmcsim::emmc {

/** Packed-command policy knobs. */
struct PackingConfig
{
    bool enabled = true;
    /** Max write requests merged into one packed command. */
    std::uint32_t maxRequests = 32;
    /** Max total size of one packed command. */
    units::Bytes maxBytes{16 * sim::kMiB};
};

/** Packing counters. */
struct PackingStats
{
    std::uint64_t packedCommands = 0; ///< commands carrying >1 request
    std::uint64_t packedRequests = 0; ///< requests riding packed cmds
};

/** Decides how many queued writes merge into the next command. */
class WritePacker
{
  public:
    explicit WritePacker(const PackingConfig &cfg) : cfg_(cfg) {}

    /**
     * Number of head-of-queue requests to serve as one command.
     *
     * Packs the maximal run of write requests at the head subject to
     * the request/byte caps; a read at the head is never packed. Reads
     * at most maxRequests + 1 entries.
     *
     * @param queue   Device queue; must be non-empty.
     * @param request Maps a queue entry to its IoRequest.
     * @return Count >= 1 of head requests to dispatch together.
     */
    template <typename Queue, typename Proj = std::identity>
    std::size_t
    packCount(const Queue &queue, Proj request = {})
    {
        EMMCSIM_ASSERT(!queue.empty(), "packCount on empty queue");
        if (!cfg_.enabled || !std::invoke(request, queue.front()).write)
            return 1;

        std::size_t count = 0;
        units::Bytes bytes{0};
        for (const auto &entry : queue) {
            const IoRequest &r = std::invoke(request, entry);
            if (!r.write)
                break;
            if (count >= cfg_.maxRequests)
                break;
            if (count > 0 && bytes + r.sizeBytes > cfg_.maxBytes)
                break;
            bytes += r.sizeBytes;
            ++count;
        }
        if (count == 0)
            count = 1;
        if (count > 1) {
            ++stats_.packedCommands;
            stats_.packedRequests += count;
        }
        return count;
    }

    const PackingConfig &config() const { return cfg_; }
    const PackingStats &stats() const { return stats_; }

    /** @name Snapshot (policy is config; only counters persist). @{ */
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

    PackingConfig cfg_;
    PackingStats stats_;
};

} // namespace emmcsim::emmc

#endif // EMMCSIM_EMMC_PACKING_HH
