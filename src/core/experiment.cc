#include "core/experiment.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "check/audit.hh"
#include "core/binio.hh"
#include "ftl/wear.hh"
#include "host/replayer.hh"
#include "obs/observer.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace emmcsim::core {

emmc::EmmcConfig
applyOptions(emmc::EmmcConfig cfg, const ExperimentOptions &opts)
{
    cfg.power.enabled = opts.powerMode;
    cfg.buffer.enabled = opts.ramBuffer;
    cfg.buffer.capacityUnits = opts.ramBufferUnits;
    cfg.packing.enabled = opts.packing;
    cfg.idleGcEnabled = opts.idleGc;
    cfg.ftl.gc.victimPolicy = opts.gcVictimPolicy;
    cfg.ftl.alloc = opts.allocPolicy;
    cfg.multiplane = opts.multiplane;
    cfg.fault = opts.fault;
    if (opts.capacityScale != 1.0) {
        EMMCSIM_ASSERT(opts.capacityScale > 0.0 &&
                           opts.capacityScale <= 1.0,
                       "capacityScale must be in (0, 1]");
        for (auto &pool : cfg.geometry.pools) {
            pool.blocksPerPlane = std::max<std::uint32_t>(
                8, static_cast<std::uint32_t>(
                       static_cast<double>(pool.blocksPerPlane) *
                       opts.capacityScale));
        }
    }
    return cfg;
}

namespace {

/** Seed of prefillDevice's random overwrites. */
constexpr std::uint64_t kPrefillSeed = 42;

/**
 * State-only pre-aging: write the first @p fraction of the logical
 * space once sequentially and then re-write a random quarter of it,
 * so blocks contain a realistic mix of valid and stale units.
 */
void
prefillDevice(emmc::EmmcDevice &device, double fraction)
{
    if (fraction <= 0.0)
        return;
    EMMCSIM_ASSERT(fraction < 0.9, "prefill fraction too large");
    ftl::Ftl &ftl = device.ftl();
    const auto limit = static_cast<std::uint64_t>(
        static_cast<double>(ftl.logicalUnits()) * fraction);

    constexpr std::uint32_t kChunkUnits = 64;
    auto install = [&](std::uint64_t u) {
        // A full pool simply stays full: the rest of the aged image
        // lands wherever room remains (installGroup skips).
        ftl.writeSplit().split(static_cast<flash::Lpn>(u), kChunkUnits,
                               [&](const ftl::PageGroup &g) {
                                   ftl.installGroup(g.pool, g.first,
                                                    g.count);
                               });
    };
    for (std::uint64_t u = 0; u + kChunkUnits <= limit;
         u += kChunkUnits) {
        install(u);
    }

    // Random overwrites create stale units for GC to reclaim.
    sim::Rng rng(kPrefillSeed);
    const std::uint64_t rewrites = limit / 4 / kChunkUnits;
    for (std::uint64_t i = 0; i < rewrites; ++i) {
        install(static_cast<std::uint64_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(limit - kChunkUnits))));
    }
}

/**
 * Case-level snapshot wrapper: the replayer image plus the pre-replay
 * FTL baseline runCase() needs to reproduce spaceUtilization exactly.
 */
constexpr const char *kCaseMagic = "emmcsim-case-snap";
constexpr std::uint32_t kCaseVersion = 1;

/**
 * Fill every device-side CaseResult column from the post-replay
 * device + replayer state. Excluded: p99ResponseMs (in-memory and
 * streamed replays keep different latency stores), snapshot / obs /
 * audit artifacts, scheme and traceName.
 */
void
collectDeviceColumns(CaseResult &res, emmc::EmmcDevice &device,
                     const host::Replayer &replayer,
                     const ftl::FtlStats &before)
{
    const emmc::DeviceStats &ds = device.stats();
    const ftl::FtlStats after = device.ftl().stats();
    const ftl::GcStats &gs = device.ftl().gcStats();

    res.requests = ds.requests;
    res.meanResponseMs = ds.responseMs.mean();
    res.meanServiceMs = ds.serviceMs.mean();
    res.noWaitPct = 100.0 * ds.noWaitRatio();

    const std::uint64_t d_units =
        after.hostUnitsWritten - before.hostUnitsWritten;
    const std::uint64_t d_bytes =
        after.hostBytesConsumed - before.hostBytesConsumed;
    res.spaceUtilization =
        d_bytes ? static_cast<double>(d_units * sim::kUnitBytes) /
                      static_cast<double>(d_bytes)
                : 1.0;

    res.gcBlockingRounds = gs.blockingRounds;
    res.gcIdleRounds = gs.idleRounds + gs.idleSteps;
    res.gcRelocatedUnits = gs.relocatedUnits;
    res.gcErasedBlocks = gs.erasedBlocks;
    ftl::WearReport wear = ftl::computeWear(device.array());
    res.totalErases = wear.totalErases;
    res.wearSpread = wear.worstSpread;
    res.writeAmplification =
        ftl::writeAmplification(device.array(), device.ftl());
    res.powerWakeups = device.powerStats().wakeups;
    res.packedCommands = device.packingStats().packedCommands;
    res.bufferReadHitRate = device.bufferStats().readHitRate();

    const flash::Geometry &geom = device.array().geometry();
    for (std::size_t pool = 0; pool < geom.pools.size(); ++pool) {
        const flash::ArrayStats &pst = device.array().stats(pool);
        if (geom.pools[pool].pageBytes == 4096) {
            res.programs4kPool += pst.programs;
        } else {
            res.programs8kPool += pst.programs;
        }
    }
    const flash::ArrayStats total_ops = device.array().totalStats();
    res.pageReads = total_ops.reads;
    res.pagePrograms = total_ops.programs;

    // Reliability columns: injector / FTL / host error-path counters
    // (all zero when injection is off).
    const fault::FaultStats &fstats = device.faultInjector().stats();
    res.correctedReads = fstats.correctedReads;
    res.uncorrectableReads = fstats.uncorrectableReads;
    res.readRetryRounds = fstats.retryRounds;
    res.programFailures = fstats.programFailures;
    res.eraseFailures = fstats.eraseFailures;
    res.relocatedPrograms = after.relocatedPrograms;
    res.retiredBlocks = device.ftl().badBlocks().totalRetired();
    res.hostRetries = replayer.stats().retriesScheduled;
    res.hostFailedRequests = replayer.stats().failedRequests;
    res.hostRetryPenaltyMs =
        sim::toMilliseconds(replayer.stats().retryPenalty);
    res.deviceReadOnly = device.ftl().readOnly();

    const emmc::SpoStats &sp = device.spoStats();
    res.spoEvents = replayer.stats().spoEvents;
    res.spoTornPages = sp.tornPages;
    res.spoLostDirtyUnits = sp.lostDirtyUnits;
    res.reissuedRequests = replayer.stats().reissuedRequests;
    res.recoveryTimeMs = sim::toMilliseconds(sp.recoveryTime);
    const ftl::JournalStats &jn = device.ftl().journal().stats();
    res.journalPagesFlushed = jn.pagesFlushed;
    res.journalCheckpoints = jn.checkpoints;
}

/** Finish the observer and move its artifacts into @p res. */
void
collectObsArtifacts(CaseResult &res, obs::DeviceObserver *observer,
                    const obs::ObserverOptions &req)
{
    if (observer == nullptr)
        return;
    observer->finish();
    res.obs.enabled = true;
    res.obs.metrics = observer->snapshot();
    res.obs.series = observer->series();
    if (req.traceSpans) {
        std::ostringstream chrome;
        observer->tracer().exportChromeTrace(chrome);
        res.obs.chromeTrace = chrome.str();
    }
    if (req.attribution)
        res.obs.attribution = observer->attribution();
}

/**
 * What one case replays: an in-memory trace (runCase), the same trace
 * continued from a case image (resumeCase), or a streaming source
 * (runCaseStream).
 */
struct CaseInput
{
    const trace::Trace *trace = nullptr;
    std::optional<std::string_view> image = std::nullopt;
    trace::TraceSource *source = nullptr;
};

/** The one case body behind runCase, resumeCase and runCaseStream. */
CaseResult
runCaseBody(const CaseInput &in, SchemeKind kind,
            const ExperimentOptions &opts)
{
    if (in.image &&
        (!opts.spo.ticks.empty() || opts.snapshotAt >= 0)) {
        sim::fatal("resumeCase cannot inject SPO or re-snapshot");
    }
    if (in.source != nullptr && opts.snapshotAt >= 0) {
        sim::fatal("runCaseStream cannot snapshot (the image stores "
                   "per-record timestamps; use runCase)");
    }

    sim::Simulator simulator;
    emmc::EmmcConfig cfg = applyOptions(schemeConfig(kind), opts);
    auto device = makeDevice(simulator, kind, cfg);

    ftl::FtlStats before;
    std::string_view inner;
    if (in.image) {
        // Resume: the device state (including any prefill) lives in
        // the image; re-aging it here would double the history.
        BinReader header(*in.image);
        if (header.str() != kCaseMagic ||
            header.u32() != kCaseVersion) {
            sim::fatal("not an emmcsim case snapshot");
        }
        header.pod(before);
        inner = header.strView();
        if (!header.ok() || header.remaining() != 0)
            sim::fatal("corrupt case snapshot header");
    } else {
        prefillDevice(*device, opts.prefill);
        if (opts.prefill > 0.0) {
            // Start the replay from a durable baseline so recovery
            // cost reflects replay-time dirt, not the aging pattern.
            device->ftl().journal().checkpoint();
        }
        // Space utilization is measured over the replay only.
        before = device->ftl().stats();
    }

    // Periodic invariant audits ride the simulator's post-event hook;
    // a final audit after the drain validates the end state.
    std::unique_ptr<check::DeviceAuditor> auditor;
    if (opts.auditEveryEvents > 0) {
        check::AuditOptions audit_opts;
        audit_opts.everyEvents = opts.auditEveryEvents;
        auditor = std::make_unique<check::DeviceAuditor>(
            simulator, *device, audit_opts);
    }

    host::Replayer replayer(simulator, *device);

    // Observability rides the trace / op / post-event hooks; with no
    // request the observer is never built and the hooks stay null.
    std::unique_ptr<obs::DeviceObserver> observer;
    if (opts.obs.any()) {
        observer = std::make_unique<obs::DeviceObserver>(
            simulator, *device, opts.obs, &replayer.stats());
    }

    host::ReplayOptions replay_opts;
    replay_opts.maxRetries = opts.hostMaxRetries;
    replay_opts.spo = opts.spo;
    replay_opts.snapshotAt = opts.snapshotAt;
    // The case wrapper's header is known before the replay; the
    // replayer writes its image behind it, in place, as the wrapper's
    // length-prefixed inner string.
    BinWriter image;
    std::size_t inner_slot = 0;
    if (opts.snapshotAt >= 0) {
        image.str(kCaseMagic);
        image.u32(kCaseVersion);
        image.pod(before);
        inner_slot = image.beginStr();
        replay_opts.snapshotOut = &image;
    }

    CaseResult res;
    res.scheme = schemeName(kind);
    if (in.source != nullptr) {
        host::StreamReplayResult sres =
            replayer.replayStream(*in.source, replay_opts);
        res.traceName = in.source->name();
        // Histogram-estimated tail (the stream keeps no per-record
        // timestamps); res.replayed stays empty by design.
        res.p99ResponseMs = sres.responseHistMs.percentileEstimate(99.0);
    } else {
        res.replayed = in.image
                           ? replayer.resume(*in.trace, inner, replay_opts)
                           : replayer.replay(*in.trace, replay_opts);
        res.traceName = in.trace->name();
        // Exact nearest-rank tail from the replayed timestamps.
        std::vector<double> resp;
        resp.reserve(res.replayed.size());
        for (const auto &r : res.replayed.records())
            resp.push_back(sim::toMilliseconds(r.finish - r.arrival));
        std::sort(resp.begin(), resp.end());
        res.p99ResponseMs = sim::percentile<double>(resp, 99.0);
    }
    collectDeviceColumns(res, *device, replayer, before);

    if (opts.snapshotAt >= 0) {
        // replay() dies if it reached no quiescent point, so the inner
        // image is complete here.
        image.endStr(inner_slot);
        res.snapshotImage = image.take();
    }

    collectObsArtifacts(res, observer.get(), opts.obs);
    if (auditor) {
        auditor->runFullAudit();
        auditor->detach();
        res.audit = auditor->report();
    }
    return res;
}

} // namespace

CaseResult
runCase(const trace::Trace &t, SchemeKind kind,
        const ExperimentOptions &opts)
{
    return runCaseBody({.trace = &t}, kind, opts);
}

CaseResult
runCaseStream(trace::TraceSource &src, SchemeKind kind,
              const ExperimentOptions &opts)
{
    return runCaseBody({.source = &src}, kind, opts);
}

CaseResult
resumeCase(const trace::Trace &t, SchemeKind kind,
           std::string_view image, const ExperimentOptions &opts)
{
    return runCaseBody({.trace = &t, .image = image}, kind, opts);
}

} // namespace emmcsim::core
