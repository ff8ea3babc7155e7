/**
 * @file
 * FlashArray: the timed flash device — state plus resource timelines.
 *
 * Timing follows the SSDsim resource-reservation model. Two resource
 * classes exist:
 *  - channels: shared buses that carry command cycles and data
 *    transfers (one transfer at a time per channel);
 *  - array units: the NAND cell arrays, busy during read / program /
 *    erase. With multi-plane commands enabled the unit of array
 *    parallelism is the plane; disabled, it is the die (one array op
 *    per die at a time), which is the conservative eMMC behaviour.
 *
 * One timing rule covers every operation: it holds the channel for a
 * command overhead plus the transfer of the data it moves, and the
 * array unit for its cell latency (Table V) plus any read-retry
 * re-sensing. A host read takes the array first and then the channel;
 * every other operation takes the channel first and then the array.
 *
 *   Read:            [array sense] then [cmd + transfer on channel]
 *   Program:         [cmd + transfer on channel] then [array program]
 *   Erase:           [cmd on channel] then [array erase]
 *   CopybackRead:    [cmd on channel] then [array sense]
 *   CopybackProgram: [cmd on channel] then [array program]
 *
 * The caller provides an earliest-start time; the array returns when
 * the operation starts and completes, and advances the timelines.
 */

#ifndef EMMCSIM_FLASH_ARRAY_HH
#define EMMCSIM_FLASH_ARRAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/injector.hh"
#include "flash/geometry.hh"
#include "flash/plane.hh"
#include "flash/timing.hh"
#include "sim/types.hh"

namespace emmcsim::flash {

/** Kinds of flash operations the array executes. */
enum class OpKind { Read, Program, Erase, CopybackRead, CopybackProgram };

/** Completion status of one flash operation. */
enum class OpStatus : std::uint8_t
{
    Ok,            ///< succeeded on the first attempt
    Corrected,     ///< read recovered by the retry ladder
    Uncorrectable, ///< read failed past the last retry level
    ProgramFail,   ///< program reported a status failure
    EraseFail,     ///< erase failed; block must be retired
};

/**
 * Timed outcome of one flash operation.
 *
 * Besides the start/done envelope, the result carries the occupancy
 * split the latency-attribution ledger needs (DESIGN.md §14): how
 * long the operation held the channel (busTime), how long it held the
 * array unit (cellTime, including any retry re-sensing), and how much
 * of the array occupancy was retry-ladder overhead (retryTime). The
 * remainder of done − start is resource contention — waiting for the
 * channel or the array unit to come free.
 */
struct OpResult
{
    sim::Time start = 0;  ///< when the operation began occupying resources
    sim::Time done = 0;   ///< when its last resource was released
    OpStatus status = OpStatus::Ok;
    std::uint32_t retries = 0; ///< read-retry rounds charged (reads)
    sim::Time busTime = 0;   ///< channel occupancy (cmd + transfer)
    sim::Time cellTime = 0;  ///< array occupancy (sense/program/erase)
    sim::Time retryTime = 0; ///< retry-ladder share of cellTime (reads)

    bool ok() const { return status == OpStatus::Ok ||
                             status == OpStatus::Corrected; }
};

/** Operation counters, kept per pool (page-size class). */
struct ArrayStats
{
    std::uint64_t reads = 0;
    std::uint64_t programs = 0;
    std::uint64_t erases = 0;
    std::uint64_t copybackReads = 0;
    std::uint64_t copybackPrograms = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesProgrammed = 0;
};

/** The complete flash array: per-plane state plus shared timelines. */
class FlashArray
{
  public:
    /**
     * @param g Geometry (validated on construction).
     * @param t Timing; t.pools must parallel g.pools.
     * @param multiplane Enable plane-level array parallelism; when
     *        false, array ops serialize per die.
     */
    FlashArray(const Geometry &g, const Timing &t, bool multiplane = true);

    const Geometry &geometry() const { return geom_; }
    const Timing &timing() const { return timing_; }

    /**
     * Attach a fault injector (borrowed; must outlive the array).
     * Null (the default) keeps the perfect-medium behaviour: every
     * operation returns OpStatus::Ok with the original timing.
     */
    void attachFaultInjector(fault::FaultInjector *injector)
    {
        fault_ = injector;
    }

    /** The attached injector, or nullptr. */
    fault::FaultInjector *faultInjector() { return fault_; }
    const fault::FaultInjector *faultInjector() const { return fault_; }

    /** Observer fired once per executed flash operation (obs support). */
    using OpHook =
        std::function<void(OpKind, const PageAddr &, const OpResult &)>;

    /**
     * Install an observability hook fired after every read / program /
     * erase / copyback with the operation's address and timed result.
     * The obs::RequestTracer uses it to build per-die span lanes; a
     * null @p hook uninstalls. The hook must not issue flash
     * operations — with none installed the timing paths are unchanged.
     */
    void setOpHook(OpHook hook) { opHook_ = std::move(hook); }

    /** Plane state by linear index. */
    Plane &plane(std::uint32_t linear) { return planes_.at(linear); }
    const Plane &plane(std::uint32_t linear) const
    {
        return planes_.at(linear);
    }

    /** Pool @p pool of the plane holding @p addr. */
    BlockPool &poolAt(const PageAddr &addr);

    /**
     * Execute a page read on @p addr.
     *
     * @param addr     Page to read (pool selects the latency class).
     * @param earliest Earliest allowed start time.
     * @param transfer_bytes Bytes to move over the channel; clamp to
     *        the physical page size. Zero keeps the full page.
     */
    OpResult read(const PageAddr &addr, sim::Time earliest,
                  units::Bytes transfer_bytes = units::Bytes{0})
    {
        return issue(OpKind::Read, addr, earliest, transfer_bytes);
    }

    /** Execute a page program on @p addr (full-page transfer). */
    OpResult program(const PageAddr &addr, sim::Time earliest)
    {
        return issue(OpKind::Program, addr, earliest);
    }

    /** Execute a block erase on the block containing @p addr. */
    OpResult erase(const PageAddr &addr, sim::Time earliest)
    {
        return issue(OpKind::Erase, addr, earliest);
    }

    /**
     * Copyback pair used by garbage collection: data moves inside the
     * plane without crossing the channel, only the command overhead is
     * charged on the bus.
     */
    OpResult copybackRead(const PageAddr &addr, sim::Time earliest)
    {
        return issue(OpKind::CopybackRead, addr, earliest);
    }
    OpResult copybackProgram(const PageAddr &addr, sim::Time earliest)
    {
        return issue(OpKind::CopybackProgram, addr, earliest);
    }

    /** When the channel of @p addr becomes free. */
    sim::Time channelFreeAt(std::uint32_t channel) const;
    /** When the array unit (plane or die) of @p addr becomes free. */
    sim::Time arrayFreeAt(const PageAddr &addr) const;

    /** Earliest time every resource in the device is idle. */
    sim::Time allIdleAt() const;

    /** Per-pool operation counters. */
    const ArrayStats &stats(std::size_t pool) const
    {
        return stats_.at(pool);
    }

    /** Aggregate counters across pools. */
    ArrayStats totalStats() const;

    /** @name Snapshot image (core/binio.hh). @{ */

    /** Serialize every pool plus timelines and counters. */
    void save(core::BinWriter &w) const;

    /** Restore; geometry must match the constructed shape. */
    void load(core::BinReader &r);
    /** @} */

  private:
    /** Index of the array-parallelism unit for @p addr. */
    std::size_t arrayIndex(const PageAddr &addr) const;

    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /** Reserve the channel for @p dur starting no earlier than @p t. */
    sim::Time reserveChannel(std::uint32_t ch, sim::Time t, sim::Time dur);

    /** Reserve the array unit for @p dur starting no earlier than @p t. */
    sim::Time reserveArray(std::size_t idx, sim::Time t, sim::Time dur);

    /**
     * Execute one operation of any kind: apply the fault model (retry
     * ladder or program/erase status), reserve the two resources in
     * the kind's order, bump its counter and fire the op hook.
     * @p transfer_bytes is honoured for host reads only.
     */
    OpResult issue(OpKind kind, const PageAddr &addr, sim::Time earliest,
                   units::Bytes transfer_bytes = units::Bytes{0});

    Geometry geom_;
    Timing timing_;
    bool multiplane_;
    fault::FaultInjector *fault_ = nullptr;
    OpHook opHook_;

    std::vector<Plane> planes_;
    std::vector<sim::Time> channelFree_;
    std::vector<sim::Time> arrayFree_;
    std::vector<ArrayStats> stats_;
};

} // namespace emmcsim::flash

#endif // EMMCSIM_FLASH_ARRAY_HH
