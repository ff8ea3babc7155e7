/**
 * @file
 * Replayer: open-loop trace replay onto a simulated eMMC device.
 *
 * Arrivals are issued at their trace timestamps regardless of how
 * the device keeps up (open loop) — the same methodology the paper
 * uses when replaying its traces on SSDsim. The replayer plays the
 * role of BIOtracer in reverse: it stamps each completed request with
 * the step-2 (service start) and step-3 (finish) times the device
 * reports.
 *
 * Every replay — in-memory, resumed, or streamed — runs one loop
 * over a trace::TraceSource: the replayer is the simulator's arrival
 * cursor (records are pulled one chunk at a time and never enter the
 * event queue), and one retry ring tracks the requests in flight.
 * Completions go to a sink: the in-memory paths stamp the output
 * trace, the streaming path folds StreamReplayResult.
 *
 * Two robustness extensions ride on the same loop (DESIGN.md §13):
 *
 *  - **Sudden power-off.** ReplayOptions::spo schedules power cuts at
 *    pre-drawn ticks. A cut cancels the in-flight command, drops the
 *    device queue, and discards the RAM buffer; the replayer parks
 *    every swallowed request plus any arrival landing during the
 *    outage, and re-issues them in submission order once the device
 *    powers back up through FTL recovery.
 *
 *  - **Snapshot / resume.** ReplayOptions::snapshotAt captures the
 *    full mutable simulation state into a binary image at the first
 *    quiescent point (device idle, queue empty, no pending retries)
 *    at or after the requested tick, appended to the caller's
 *    ReplayOptions::snapshotOut writer. resume() reads the image in
 *    place, reconstructs the run in a fresh simulator/device pair and
 *    continues it; the completed replay is byte-identical to the
 *    uninterrupted one.
 */

#ifndef EMMCSIM_HOST_REPLAYER_HH
#define EMMCSIM_HOST_REPLAYER_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "emmc/device.hh"
#include "fault/spo.hh"
#include "sim/arrivals.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace emmcsim::host {

/** Replay options. */
struct ReplayOptions
{
    /**
     * Bounded retry on device-reported errors (uncorrectable reads,
     * rejected writes), mirroring the block layer's requeue policy.
     * Retries back off exponentially from 1 ms. 0 disables
     * resubmission.
     */
    std::uint32_t maxRetries = 3;

    /**
     * Sudden-power-off schedule; empty ticks disable injection.
     * Mutually exclusive with snapshotAt (a cut while capturing would
     * make the image ill-defined).
     */
    fault::SpoConfig spo;

    /**
     * Capture a snapshot at the first quiescent point at or after
     * this simulated time; negative disables. The image is appended
     * to snapshotOut, and the replay itself continues to completion
     * unperturbed.
     */
    sim::Time snapshotAt = -1;

    /**
     * Where the snapshot image is appended; required when snapshotAt
     * is set. The caller owns the writer and may have written its own
     * header first (core::runCase wraps the image in place this way),
     * so the image is never copied.
     */
    core::BinWriter *snapshotOut = nullptr;
};

/** Host-side error-recovery counters for one replay. */
struct ReplayStats
{
    /** Completions that reported an error (any attempt). */
    std::uint64_t errorCompletions = 0;
    /** Resubmissions scheduled by the retry policy. */
    std::uint64_t retriesScheduled = 0;
    /** Requests that succeeded on a retry attempt. */
    std::uint64_t recoveredRequests = 0;
    /** Requests still failing after the retry budget. */
    std::uint64_t failedRequests = 0;
    /** Extra latency requests accrued across their retry attempts. */
    sim::Time retryPenalty = 0;

    /** @name Sudden-power-off (all zero unless SPO is scheduled). @{ */
    /** Power cuts executed. */
    std::uint64_t spoEvents = 0;
    /** Cuts skipped because they landed inside an ongoing outage. */
    std::uint64_t spoSkipped = 0;
    /** Dropped or deferred requests re-issued after power-up. */
    std::uint64_t reissuedRequests = 0;
    /** Submissions parked because the device was off. */
    std::uint64_t deferredSubmissions = 0;
    /** Total simulated power-up recovery time. */
    sim::Time recoveryTime = 0;
    /** @} */
};

/**
 * What one streaming replay returns. replayStream() cannot hand back
 * a timestamp-filled Trace — materializing one would defeat the point
 * of streaming — so it folds every completion into a fixed-bucket
 * response-time histogram (percentileEstimate for tails), never
 * per-record storage. Means and counts come from the device's own
 * statistics (EmmcDevice::stats()).
 */
struct StreamReplayResult
{
    /** Requests completed (each counted once, after retries). */
    std::uint64_t requests = 0;
    /** Response time (finish - original arrival) distribution, ms. */
    sim::Histogram responseHistMs{sim::latencyBoundsMs()};
};

/** Drives one device with one trace. */
class Replayer final : private sim::ArrivalCursor
{
  public:
    /**
     * @param simulator The event loop (shared with the device).
     * @param device    Target device; its completion callback is taken
     *        over for the duration of the replay.
     */
    Replayer(sim::Simulator &simulator, emmc::EmmcDevice &device);

    /**
     * Replay @p input to completion.
     *
     * @return A copy of @p input whose records carry the measured
     *         serviceStart / finish timestamps.
     */
    trace::Trace replay(const trace::Trace &input,
                        const ReplayOptions &opts = {});

    /**
     * Continue a replay of @p input from a snapshot @p image captured
     * by an earlier replay() with snapshotAt set. The simulator and
     * device must be freshly constructed with the configuration of
     * the capturing run (mismatched geometry fails the image load;
     * other config divergence is the caller's responsibility).
     * opts.spo and opts.snapshotAt must be unset.
     */
    trace::Trace resume(const trace::Trace &input,
                        std::string_view image,
                        const ReplayOptions &opts = {});

    /**
     * Replay a streaming source to completion without materializing
     * the trace: records are pulled one chunk at a time, so memory
     * holds one chunk plus the in-flight window regardless of trace
     * length. Runs the same loop as replay(), so the device sees the
     * same event order on the same records, SPO included.
     *
     * Snapshotting needs the in-memory path (the image stores
     * per-record timestamps) and is rejected (sim::fatal), as is a
     * source that fails.
     */
    StreamReplayResult replayStream(trace::TraceSource &src,
                                    const ReplayOptions &opts = {});

    /** Error/retry counters of the most recent replay of any kind. */
    const ReplayStats &stats() const { return stats_; }

  private:
    /** Receives each request's final completion (after retries). */
    class Sink;
    /** In-memory sink: stamps the output trace record. */
    class StampSink;
    /** Streaming sink: folds completions into StreamReplayResult. */
    class FoldSink;

    /** Retry bookkeeping of one in-flight request. */
    struct RetryEntry
    {
        std::uint64_t id = 0;
        sim::Time arrival = 0; ///< original trace arrival
        sim::Time firstFinish = -1;
        std::uint32_t attempts = 0;
        bool active = false;
    };

    /** Records pulled from the source per refill. */
    static constexpr std::size_t kChunk = 4096;

    /** Shared body of replay() and resume(). */
    trace::Trace run(const trace::Trace &input,
                     const ReplayOptions &opts,
                     std::optional<std::string_view> image);

    /** Validate @p opts and reset the per-replay state. */
    void begin(const ReplayOptions &opts);

    /** Load a snapshot @p image into @p out, the clock and the device. */
    void restore(std::string_view image, trace::Trace &out);

    /**
     * The replay loop: merge @p src's records (ids from nextArrival_
     * on) into the simulator as arrivals, run to completion, and hand
     * every final completion to @p sink.
     */
    void runLoop(trace::TraceSource &src, Sink &sink,
                 const ReplayOptions &opts);

    /** @name sim::ArrivalCursor over the current chunk. @{ */
    sim::Time nextArrival() const override;
    void fireNext() override;
    /** @} */

    /** Pull the next chunk from src_ (empty at end of stream). */
    void refill();

    /** Device completion: retry, or finish through sink_. */
    void onCompletion(const emmc::CompletedRequest &c);

    /** Ring slot of an in-flight id (asserts it is tracked). */
    RetryEntry &entryFor(std::uint64_t id);

    /** Track a newly arrived id; grows the ring if its slot is busy. */
    void track(std::uint64_t id, sim::Time arrival);

    /** Double the ring until every active id keeps a distinct slot. */
    void growRing(std::uint64_t id);

    /** Submit @p req now, or park it while the device is off. */
    void submitNow(const emmc::IoRequest &req);

    /** Power-cut event body (one per scheduled SPO tick). */
    void spoCut();

    /** Power-restore event body; re-issues parked requests. */
    void spoPowerUp();

    /** Post-event hook body: capture once quiescent past
     * opts_->snapshotAt. */
    void maybeCapture(const trace::Trace &out);

    sim::Simulator &sim_;
    emmc::EmmcDevice &device_;
    ReplayStats stats_;

    /** @name Per-replay state (set up by begin() and runLoop()). @{ */
    trace::TraceSource *src_ = nullptr;
    Sink *sink_ = nullptr;
    const ReplayOptions *opts_ = nullptr;
    std::vector<trace::TraceRecord> chunk_;
    std::size_t chunkPos_ = 0;
    std::size_t chunkLen_ = 0;
    std::uint64_t logicalUnits_ = 0;
    /** In-flight retry state, addressed id & (size - 1). */
    std::vector<RetryEntry> ring_;
    std::vector<emmc::IoRequest> parked_; ///< awaiting power-up re-issue
    std::uint64_t pendingRetries_ = 0; ///< scheduled, not yet re-submitted
    std::uint64_t nextArrival_ = 0; ///< records submitted; the next id
    bool snapshotDone_ = false;
    /** @} */
};

} // namespace emmcsim::host

#endif // EMMCSIM_HOST_REPLAYER_HH
