/**
 * @file
 * EmmcDevice: the simulated eMMC controller.
 *
 * The device serializes commands at its interface — eMMC 4.51 has no
 * command queueing, which is what gives the paper's NoWait semantics:
 * a request waits if and only if another request is being served.
 * Inside one command, page operations stripe across channels, dies and
 * planes through the FTL and flash-array timelines.
 *
 * Dispatch path per command: optional wake-up from low-power mode,
 * fixed command overhead, optional packed-write merging, then either a
 * mapping-driven read or page programs split by Ftl::writeSplit (with any
 * blocking GC inline). Completion fires a simulator event, records the
 * BIOtracer step-2/step-3 timestamps, and starts the next command.
 */

#ifndef EMMCSIM_EMMC_DEVICE_HH
#define EMMCSIM_EMMC_DEVICE_HH

#include <functional>
#include <vector>

#include "core/binio.hh"
#include "emmc/config.hh"
#include "emmc/packing.hh"
#include "emmc/power.hh"
#include "emmc/ram_buffer.hh"
#include "emmc/request.hh"
#include "flash/array.hh"
#include "ftl/ftl.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace emmcsim::emmc {

/** Aggregate device counters. */
struct DeviceStats
{
    std::uint64_t requests = 0;
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    /** Requests that found the device idle on arrival. */
    std::uint64_t noWaitRequests = 0;
    /** Reads completed with at least one uncorrectable page. */
    std::uint64_t readErrorRequests = 0;
    /** Writes refused because the device degraded to read-only. */
    std::uint64_t writeRejectedRequests = 0;
    /** Commands issued to the flash backend (packing merges). */
    std::uint64_t commands = 0;
    /** Total device busy time (sum of command service intervals). */
    sim::Time busyTime = 0;
    /**
     * Completed requests whose phase ledger did not sum exactly to
     * finish − arrival. Always zero unless the attribution
     * decomposition (emmc/phases.hh) is broken; the phase-conservation
     * audit checker fails on any non-zero value.
     */
    std::uint64_t ledgerViolations = 0;

    sim::OnlineStats responseMs; ///< per-request response times (ms)
    sim::OnlineStats serviceMs;  ///< per-request service times (ms)
    sim::OnlineStats waitMs;     ///< per-request queue wait times (ms)
    /** Outstanding requests (incl. in-flight) seen by each arrival. */
    sim::OnlineStats queueDepthAtArrival;

    double
    noWaitRatio() const
    {
        return requests ? static_cast<double>(noWaitRequests) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

/** Sudden-power-off counters (device side; DESIGN.md §13). */
struct SpoStats
{
    std::uint64_t powerCuts = 0;     ///< powerFail() invocations
    std::uint64_t notifiedCuts = 0;  ///< cuts preceded by notification
    /** Requests dropped mid-command (never acknowledged). */
    std::uint64_t droppedInFlight = 0;
    /** Requests dropped while still queued. */
    std::uint64_t droppedQueued = 0;
    /** Dirty RAM-buffer units lost with the power rail. */
    std::uint64_t lostDirtyUnits = 0;
    /** Host pages torn by the cuts (at most one per cut). */
    std::uint64_t tornPages = 0;
    /** Total simulated power-up recovery time across all cuts. */
    sim::Time recoveryTime = 0;

    /**
     * @name Mount-time phase totals
     * recoveryTime split along the RecoveryReport cost model, summed
     * across all power cuts; surfaced through the attribution report
     * schema so mount cost shows up in `emmcsim_cli explain`.
     * @{
     */
    sim::Time recoveryCheckpointLoad = 0;  ///< checkpoint page reads
    sim::Time recoveryJournalReplay = 0;   ///< journal tail replay
    sim::Time recoveryScan = 0;            ///< open-block OOB scan
    sim::Time recoveryReErase = 0;         ///< interrupted-erase redo
    sim::Time recoveryCheckpointWrite = 0; ///< fresh checkpoint write
    /** @} */
};

/** The simulated eMMC device. */
class EmmcDevice
{
  public:
    /** Callback fired once per completed request. */
    using CompletionCallback =
        std::function<void(const CompletedRequest &)>;

    /**
     * @param simulator Event loop the device schedules on.
     * @param cfg       Full device configuration; its pool layout
     *        alone decides how writes split into pages.
     */
    EmmcDevice(sim::Simulator &simulator, const EmmcConfig &cfg);

    /** Register the completion callback (single consumer). */
    void setCompletionCallback(CompletionCallback cb)
    {
        onComplete_ = std::move(cb);
    }

    /** Observer fired once per completed request (obs support). */
    using TraceHook = std::function<void(const CompletedRequest &)>;

    /**
     * Install an observability hook fired for every completed request,
     * independently of the completion callback (which the replayer
     * owns). The obs::RequestTracer and latency recorders subscribe
     * here; a null @p hook uninstalls. The hook must not mutate the
     * device — with none installed the dispatch path is unchanged.
     */
    void setTraceHook(TraceHook hook) { traceHook_ = std::move(hook); }

    /** Installed trace hook (null without an observer); the resume
     * path re-feeds it with pre-capture completions. */
    const TraceHook &traceHook() const { return traceHook_; }

    /**
     * Submit a request. Must be called at simulator time equal to
     * request.arrival (the replayer schedules arrivals as events).
     */
    void submit(const IoRequest &request);

    /** @return true while a command is in flight. */
    bool busy() const { return inflight_ > 0; }

    /** @return true between powerFail() and powerOn(). */
    bool poweredOff() const { return poweredOff_; }

    /**
     * Cut device power at @p now (DESIGN.md §13). The in-flight
     * command's completion event is cancelled — those requests were
     * never acknowledged — and they, then the waiting requests in
     * arrival order, are appended to @p dropped for host-side re-issue
     * after power-up. The RAM buffer's contents (including acknowledged
     * dirty data not yet flushed) are discarded. The device accepts
     * no submissions until powerOn().
     */
    void powerFail(sim::Time now, std::vector<IoRequest> &dropped);

    /**
     * POWER_OFF_NOTIFICATION: the host warns the device before the
     * cut. Flushes the RAM buffer, forces a journal flush barrier and
     * checkpoint, and settles the open flash page, so the powerFail()
     * that follows tears nothing and recovery replays no journal
     * tail. Queued commands are still dropped (the notification
     * covers cached data and metadata, not the queue).
     */
    void powerOffNotify(sim::Time now);

    /**
     * Restore power at @p now: run FTL power-up recovery (checkpoint
     * load, journal replay, open-block scan) and charge its simulated
     * cost like blocking GC — the first post-recovery command waits it
     * out.
     */
    ftl::RecoveryReport powerOn(sim::Time now);

    /**
     * Cache-flush barrier (eMMC CACHE_FLUSH): write back all dirty
     * RAM-buffer units and force journalled metadata durable. After
     * the returned completion time, every acknowledged write survives
     * a sudden power-off.
     */
    sim::Time flushCache(sim::Time now);

    const SpoStats &spoStats() const { return spoStats_; }

    /**
     * @name Snapshot
     * Serialize the full mutable device state. Only legal at a
     * quiescent point: queue empty, no command in flight, powered on.
     * load() additionally re-arms pending idle-GC ticks on the
     * simulator, so the clock must already be restored.
     * @{
     */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

    /** Requests waiting behind the in-flight command. */
    std::size_t queueDepth() const
    {
        return queue_.size() - head_ - inflight_;
    }

    /**
     * Space utilization: host bytes written / flash bytes consumed for
     * them (the paper's lifetime proxy, Fig 9). 1.0 when nothing was
     * written.
     */
    double spaceUtilization() const;

    /**
     * Fraction of wall-clock time the device spent serving commands
     * up to @p now; 0 when @p now is 0.
     */
    double utilization(sim::Time now) const;

    const EmmcConfig &config() const { return cfg_; }
    const DeviceStats &stats() const { return stats_; }
    const PackingStats &packingStats() const { return packer_.stats(); }
    const PowerStats &powerStats() const { return power_.stats(); }
    const PowerManager &power() const { return power_; }
    const BufferStats &bufferStats() const { return buffer_.stats(); }
    /** NAND fault injector (inert unless cfg.fault.enabled). */
    fault::FaultInjector &faultInjector() { return injector_; }
    const fault::FaultInjector &faultInjector() const
    {
        return injector_;
    }

    ftl::Ftl &ftl() { return ftl_; }
    const ftl::Ftl &ftl() const { return ftl_; }
    flash::FlashArray &array() { return array_; }
    const flash::FlashArray &array() const { return array_; }

    /**
     * Test backdoor: skew the ledger-violation counter without a real
     * conservation break, so the phase-conservation audit checker can
     * be proven to fire (see tests/check/invariants_test.cc).
     */
    void corruptLedgerViolationsForTest(std::uint64_t n)
    {
        stats_.ledgerViolations += n;
    }

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    /** Dispatch the next command from the first waiting entry. */
    void startNext();

    /** Completion handler for the in-flight command. */
    void finishCommand();

    /**
     * Serve one read request; returns its flash completion time and
     * reports ReadError through @p status when any page stayed
     * uncorrectable after the retry ladder. Charges the flash phases
     * of the request's critical chain to @p phases.
     */
    sim::Time serveRead(const IoRequest &r, sim::Time begin,
                        RequestStatus &status, PhaseLedger &phases);

    /**
     * Serve one write request; returns its flash completion time and
     * reports WriteRejected through @p status when the device is
     * read-only. Charges the flash phases of the request's critical
     * chain to @p phases.
     */
    sim::Time serveWrite(const IoRequest &r, sim::Time begin,
                         RequestStatus &status, PhaseLedger &phases);

    /**
     * Split @p n units from @p first into page groups (Ftl::writeSplit) and
     * program them, all starting no earlier than @p begin. Clears
     * @p accepted when any group was rejected (read-only device) and
     * sets @p chain to the breakdown of the group finishing last (left
     * alone when none finishes after @p begin).
     * @return Completion time of the last group (>= @p begin).
     */
    sim::Time writeRun(flash::Lpn first, std::uint32_t n, sim::Time begin,
                       bool &accepted, ftl::FlashBreakdown &chain);

    /**
     * Flush runs of dirty buffer units to flash. Clears @p accepted
     * when any group was rejected (read-only device).
     */
    sim::Time flushRuns(const std::vector<UnitRun> &runs,
                        sim::Time begin, bool &accepted);

    /** Idle-GC event body. */
    void idleGcTick();

    sim::Simulator &sim_;
    EmmcConfig cfg_;

    fault::FaultInjector injector_; ///< attached to array_ when enabled
    flash::FlashArray array_;
    ftl::Ftl ftl_;
    WritePacker packer_;
    PowerManager power_;
    RamBuffer buffer_;

    /**
     * Every request from submit() to completion, in arrival order:
     * [head_, head_ + inflight_) is the command in flight, filled in
     * place by startNext(); the entries after it wait. Served entries
     * are dropped when the queue drains or compacted once head_ passes
     * half the size (DESIGN.md §13.4).
     */
    std::vector<CompletedRequest> queue_;
    std::size_t head_ = 0;
    std::size_t inflight_ = 0; ///< requests riding the in-flight command
    bool idle_ = true;           ///< device has been idle since last work
    sim::Time gcBusyUntil_ = 0;  ///< idle GC occupies flash until here
    /**
     * Power-up recovery occupies flash until here. Kept separate from
     * gcBusyUntil_ (dispatch waits for the max of both, so timing is
     * unchanged) so the attribution ledger can split a post-power-up
     * dispatch stall into MountStall vs GcWait.
     */
    sim::Time mountBusyUntil_ = 0;

    /**
     * Power-loss bookkeeping. pendingCompletion_ is the in-flight
     * command's completion event, valid while inflight_ > 0, so a
     * power cut can cancel it. pendingIdleTicks_ mirrors every
     * scheduled idle-GC tick (one entry per event, consumed as the
     * event fires) so a snapshot can re-arm them on restore.
     */
    bool poweredOff_ = false;
    sim::Time crashTime_ = 0;           ///< valid while poweredOff_
    sim::EventId pendingCompletion_;    ///< in-flight completion event
    std::vector<sim::Time> pendingIdleTicks_;
    SpoStats spoStats_;

    DeviceStats stats_;
    CompletionCallback onComplete_;
    TraceHook traceHook_;
};

} // namespace emmcsim::emmc

#endif // EMMCSIM_EMMC_DEVICE_HH
