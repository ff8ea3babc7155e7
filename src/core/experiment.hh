/**
 * @file
 * Experiment runner: one (trace, scheme) replay with the paper's
 * measurement conventions, producing everything Figs 8/9 and the
 * characterization tables need.
 */

#ifndef EMMCSIM_CORE_EXPERIMENT_HH
#define EMMCSIM_CORE_EXPERIMENT_HH

#include <string>
#include <string_view>

#include "check/audit.hh"
#include "core/scheme.hh"
#include "emmc/device.hh"
#include "fault/spo.hh"
#include "ftl/gc.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/observer.hh"
#include "obs/sampler.hh"
#include "sim/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace emmcsim::core {

/** Toggles applied on top of the Table V scheme configuration. */
struct ExperimentOptions
{
    /**
     * Power-mode emulation. Off for the Fig 8/9 device comparison
     * (pure flash-path timing); on for the Table IV / Fig 5
     * characterization replays, which model the real device.
     */
    bool powerMode = false;
    /** RAM buffer; the paper disables it in the case study. */
    bool ramBuffer = false;
    /** RAM buffer capacity in 4KB units when enabled. */
    std::uint64_t ramBufferUnits = 256;
    /** eMMC packed write commands. */
    bool packing = true;
    /** Idle-time garbage collection (Implication 2 ablation). */
    bool idleGc = false;
    /** GC victim-selection policy. */
    ftl::GcVictimPolicy gcVictimPolicy = ftl::GcVictimPolicy::Greedy;
    /** Write-placement policy (dynamic vs SSDsim static allocation). */
    ftl::AllocPolicy allocPolicy = ftl::AllocPolicy::RoundRobin;
    /** Plane-level parallelism (multi-plane commands). */
    bool multiplane = false;
    /**
     * Pre-fill fraction of the logical space before the replay, to
     * age the device so garbage collection actually fires (the
     * Fig 8/9 runs use 0: a brand-new device, as in the paper). The
     * aging pattern is fixed (seed 42), so aged runs are repeatable.
     */
    double prefill = 0.0;
    /**
     * Scale factor applied to blocks-per-plane (1.0 keeps the 32GB
     * Table V device). Shrinking the device makes GC experiments
     * reachable with scaled-down traces.
     */
    double capacityScale = 1.0;
    /**
     * Run full invariant audits (check/) every N executed events
     * during the replay, plus one final audit after it drains. 0
     * disables auditing entirely (no overhead on the replay).
     */
    std::uint64_t auditEveryEvents = 0;
    /**
     * Seeded NAND fault injection (disabled by default: the replay is
     * byte-identical to a device without the fault subsystem).
     */
    fault::FaultConfig fault;
    /** Host retry budget for device-reported errors. */
    std::uint32_t hostMaxRetries = 3;
    /** Observability: metrics / series / trace spans / attribution. */
    obs::ObserverOptions obs;
    /**
     * Sudden-power-off schedule injected by the host replayer (empty
     * ticks = off; see fault/spo.hh). Mutually exclusive with
     * snapshotAt.
     */
    fault::SpoConfig spo;
    /**
     * Capture a snapshot at the first quiescent point at or after
     * this simulated time (negative = off). The image lands in
     * CaseResult::snapshotImage; resumeCase() continues it in a
     * fresh process with a byte-identical outcome.
     */
    sim::Time snapshotAt = -1;
};

/** Everything measured from one (trace, scheme) replay. */
struct CaseResult
{
    std::string scheme;
    std::string traceName;

    double meanResponseMs = 0.0; ///< Fig 8's MRT
    double meanServiceMs = 0.0;
    double noWaitPct = 0.0;
    double spaceUtilization = 1.0; ///< Fig 9 metric

    std::uint64_t requests = 0;
    std::uint64_t gcBlockingRounds = 0;
    std::uint64_t gcIdleRounds = 0;
    std::uint64_t gcRelocatedUnits = 0;
    std::uint64_t gcErasedBlocks = 0;
    /** Total block erases (endurance proxy; Section V motivation). */
    std::uint64_t totalErases = 0;
    /** Flash bytes programmed per host byte written (1.0 ideal). */
    double writeAmplification = 0.0;
    /** Worst per-pool erase-count spread (wear balance). */
    std::uint32_t wearSpread = 0;
    std::uint64_t powerWakeups = 0;
    std::uint64_t packedCommands = 0;
    double bufferReadHitRate = 0.0;

    /** @name Flash-operation breakdown (the case-study columns).
     * @{ */
    std::uint64_t pageReads = 0;    ///< array page reads, all pools
    std::uint64_t pagePrograms = 0; ///< array page programs, all pools
    std::uint64_t programs4kPool = 0; ///< programs into 4KB-page pools
    std::uint64_t programs8kPool = 0; ///< programs into 8KB-page pools
    /** @} */

    /** @name Reliability columns (all zero with fault injection off).
     * @{ */
    double p99ResponseMs = 0.0; ///< response-time tail
    std::uint64_t correctedReads = 0;      ///< retry ladder recovered
    std::uint64_t uncorrectableReads = 0;  ///< data lost
    std::uint64_t readRetryRounds = 0;     ///< extra sensing rounds
    std::uint64_t programFailures = 0;
    std::uint64_t eraseFailures = 0;
    std::uint64_t relocatedPrograms = 0;
    std::uint64_t retiredBlocks = 0; ///< grown bad blocks
    std::uint64_t hostRetries = 0;   ///< host-side resubmissions
    std::uint64_t hostFailedRequests = 0;
    double hostRetryPenaltyMs = 0.0;
    bool deviceReadOnly = false; ///< degraded before the replay ended
    /** @} */

    /** @name Robustness columns (zero unless SPO was scheduled).
     * @{ */
    std::uint64_t spoEvents = 0;        ///< power cuts executed
    std::uint64_t spoTornPages = 0;     ///< host pages torn by cuts
    std::uint64_t spoLostDirtyUnits = 0; ///< RAM-buffer data lost
    std::uint64_t reissuedRequests = 0; ///< re-sent after power-up
    double recoveryTimeMs = 0.0;        ///< total power-up recovery
    std::uint64_t journalPagesFlushed = 0;
    std::uint64_t journalCheckpoints = 0;
    /** @} */

    /**
     * Snapshot image (empty unless snapshotAt was set). Hand it to
     * resumeCase() — or write it to disk for the CLI's restore
     * subcommand — to continue the run elsewhere.
     */
    std::string snapshotImage;

    /**
     * Replayed trace: every record with BIOtracer's three timestamps
     * (trace arrival, service start, finish); the one source of the
     * CLI's --trace-csv file. Empty for runCaseStream().
     */
    trace::Trace replayed;

    /** Observability artifacts (value-only; the device is gone). */
    struct ObsArtifacts
    {
        /** True when any ExperimentOptions::obs field was set. */
        bool enabled = false;
        /** End-of-run metric values (metrics / sampleWindow modes). */
        obs::MetricsSnapshot metrics;
        /** Windowed series (empty unless sampleWindow > 0). */
        obs::SeriesSet series;
        /** Chrome trace_event JSON (traceSpans mode). */
        std::string chromeTrace;
        /** Latency attribution (attribution mode). */
        obs::AttributionSummary attribution;
    };
    ObsArtifacts obs;

    /**
     * Invariant-audit outcome (empty unless auditEveryEvents was
     * set); the final audit always runs once after the replay.
     */
    check::AuditReport audit;
};

/** Replay @p t on a fresh device of @p kind. */
CaseResult runCase(const trace::Trace &t, SchemeKind kind,
                   const ExperimentOptions &opts = {});

/**
 * Replay a streaming source on a fresh device of @p kind without
 * materializing the trace (multi-GB inputs replay in bounded memory).
 * Device-side columns and observability artifacts are identical to
 * runCase() on the same records; differences: replayed stays empty,
 * p99ResponseMs is histogram-estimated rather than exact, and
 * opts.snapshotAt must be unset (sim::fatal otherwise).
 */
CaseResult runCaseStream(trace::TraceSource &src, SchemeKind kind,
                         const ExperimentOptions &opts = {});

/**
 * Continue a run captured by runCase() with snapshotAt set. @p opts
 * must match the capturing run (the device is rebuilt from the same
 * scheme + options; mismatched geometry fails the image load), except
 * spo / snapshotAt which must be unset (sim::fatal otherwise). The
 * returned CaseResult is byte-for-byte the one the uninterrupted run
 * produces. @p image is read in place, never copied.
 */
CaseResult resumeCase(const trace::Trace &t, SchemeKind kind,
                      std::string_view image,
                      const ExperimentOptions &opts = {});

/** Apply @p opts to a scheme configuration. */
emmc::EmmcConfig applyOptions(emmc::EmmcConfig cfg,
                              const ExperimentOptions &opts);

} // namespace emmcsim::core

#endif // EMMCSIM_CORE_EXPERIMENT_HH
