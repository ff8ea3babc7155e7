/**
 * @file
 * Error-handling path tests: each NAND fault class is planted through
 * the injector's force hooks and the recovery machinery is checked end
 * to end — relocation after program failures, retirement after erase
 * failures, read-only degradation when spares run out, uncorrectable
 * reads surfacing as structured errors, host-side retry — with the
 * check/ invariants passing after every scenario.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/audit.hh"
#include "check/invariants.hh"
#include "core/experiment.hh"
#include "core/scheme.hh"
#include "fault/injector.hh"
#include "ftl/ftl.hh"
#include "host/replayer.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

/** Enabled injector config with every probabilistic knob at zero. */
fault::FaultConfig
quietFaultConfig()
{
    fault::FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 17;
    return cfg;
}

/**
 * The GC rig geometry (1 plane, 1 pool, 4 blocks of 4 pages, 8 logical
 * units) with a fault injector wired into the array.
 */
struct FaultRig
{
    flash::Geometry geom;
    flash::Timing timing;
    flash::FlashArray array;
    fault::FaultInjector injector;
    Ftl ftl;

    explicit FaultRig(std::uint32_t spares = 8)
        : geom(makeGeom()),
          timing(makeTiming()),
          array(geom, timing, true),
          injector(quietFaultConfig()),
          ftl(array, makeCfg(spares))
    {
        array.attachFaultInjector(&injector);
    }

    static flash::Geometry
    makeGeom()
    {
        flash::Geometry g;
        g.channels = 1;
        g.chipsPerChannel = 1;
        g.diesPerChip = 1;
        g.planesPerDie = 1;
        g.pagesPerBlock = 4;
        g.pools = {flash::PoolConfig{4096, 4}};
        return g;
    }

    static flash::Timing
    makeTiming()
    {
        flash::Timing t;
        t.pools = {flash::Timing::page4k()};
        return t;
    }

    static FtlConfig
    makeCfg(std::uint32_t spares)
    {
        FtlConfig cfg;
        cfg.opRatio = 0.5; // 8 logical units of 16 raw
        cfg.gc.hardFreeBlocks = 1;
        cfg.gc.softFreeBlocks = 3;
        cfg.bbm.spareBlocksPerPlanePool = spares;
        return cfg;
    }

    /** One overwrite round across all 8 logical units. */
    sim::Time
    overwriteRound(sim::Time t)
    {
        for (flash::Lpn lpn{0}; lpn.value() < 8; ++lpn)
            t = ftl.writeGroup(0, lpn, 1, t).done;
        return t;
    }

    /** The first @p live logical units still resolve to their lpn. */
    void
    expectDataIntact(std::int64_t live = 8) const
    {
        for (flash::Lpn lpn{0}; lpn.value() < live; ++lpn) {
            ASSERT_TRUE(ftl.map().mapped(lpn)) << "lpn " << lpn;
            const MapEntry &e = ftl.map().lookup(lpn);
            const auto &pool =
                array.plane(static_cast<std::uint32_t>(e.planeLinear))
                    .pool(e.pool);
            ASSERT_TRUE(pool.unitValid(e.ppn, e.unit)) << "lpn " << lpn;
            ASSERT_EQ(pool.lpnAt(e.ppn, e.unit), lpn);
        }
    }

    /** All structural invariants (mapping + reliability) hold. */
    void
    expectInvariantsClean() const
    {
        check::CheckContext ctx("fault-recovery");
        check::checkMappingBijection(ftl, ctx);
        check::checkUnitConservation(ftl, ctx);
        check::checkRetiredBlocks(ftl, ctx);
        check::checkSpareAccounting(ftl, ctx);
        EXPECT_EQ(ctx.failures(), 0u);
        for (const auto &v : ctx.violations())
            ADD_FAILURE() << v;
    }

    /**
     * Drive idle-GC steps from @p now, as the device's idle ticks
     * do, until a step finds nothing to do or @p deadline passes.
     * @return Flash time consumed.
     */
    sim::Time
    idleGc(sim::Time now, sim::Time deadline)
    {
        sim::Time t = now;
        while (t < deadline) {
            bool did_work = false;
            const sim::Time done = ftl.idleGcStep(t, did_work);
            if (!did_work)
                break;
            t = done;
        }
        return t - now;
    }
};

} // namespace

TEST(FaultRecovery, ProgramFailureRelocatesWithoutLosingData)
{
    FaultRig rig;
    sim::Time t = rig.overwriteRound(0);

    rig.injector.forceProgramFailures(1);
    const WriteResult res = rig.ftl.writeGroup(0, flash::Lpn{0}, 1, t);
    EXPECT_TRUE(res.accepted);
    EXPECT_GT(res.done, t);

    EXPECT_EQ(rig.ftl.stats().relocatedPrograms, 1u);
    EXPECT_EQ(rig.ftl.badBlocks().stats().programFailures, 1u);
    EXPECT_EQ(rig.ftl.badBlocks().stats().relocatedPrograms, 1u);
    EXPECT_FALSE(rig.ftl.readOnly());

    // The failed block is flagged suspect, awaiting scrub.
    const auto &pool = rig.array.plane(0).pool(0);
    std::uint32_t suspects = 0;
    for (std::uint32_t b = 0; b < pool.blockCount(); ++b)
        suspects += pool.blockSuspect(flash::BlockId{b}) ? 1 : 0;
    EXPECT_EQ(suspects, 1u);

    rig.expectDataIntact();
    rig.expectInvariantsClean();
}

TEST(FaultRecovery, SuspectBlockIsScrubbedAndRetired)
{
    FaultRig rig;
    // Keep the live footprint to one block so the scrub path has free
    // space to drain into even after the suspect block is sealed off.
    sim::Time t = 0;
    for (flash::Lpn lpn{0}; lpn.value() < 4; ++lpn)
        t = rig.ftl.writeGroup(0, lpn, 1, t).done;
    rig.injector.forceProgramFailures(1);
    t = rig.ftl.writeGroup(0, flash::Lpn{0}, 1, t).done;

    // Idle GC prioritizes scrubbing: it drains the suspect block's
    // survivors and retires it instead of erasing it.
    const sim::Time used = rig.idleGc(t, t + sim::seconds(10));
    EXPECT_GT(used, 0);

    ASSERT_EQ(rig.ftl.badBlocks().totalRetired(), 1u);
    const BadBlockEntry &e = rig.ftl.badBlocks().table().front();
    EXPECT_EQ(e.cause, RetireCause::ProgramFail);
    EXPECT_EQ(rig.array.plane(0).pool(0).retiredBlockCount(), 1u);
    EXPECT_TRUE(rig.array.plane(0).pool(0).blockRetired(flash::BlockId{e.block}));
    EXPECT_GT(rig.ftl.gcStats().scrubSteps, 0u);
    EXPECT_FALSE(rig.ftl.readOnly()) << "spare budget not exhausted";

    rig.expectDataIntact(4);
    rig.expectInvariantsClean();
}

TEST(FaultRecovery, EraseFailureRetiresTheBlockOutright)
{
    FaultRig rig;
    rig.injector.forceEraseFailures(1);

    // Overwrite until GC erases a block; the planted failure retires
    // the first victim on the spot.
    sim::Time t = 0;
    for (int round = 0; round < 20 &&
                        rig.ftl.badBlocks().stats().eraseFailures == 0;
         ++round) {
        t = rig.overwriteRound(t);
    }

    ASSERT_EQ(rig.ftl.badBlocks().stats().eraseFailures, 1u);
    ASSERT_EQ(rig.ftl.badBlocks().totalRetired(), 1u);
    EXPECT_EQ(rig.ftl.badBlocks().table().front().cause,
              RetireCause::EraseFail);
    EXPECT_EQ(rig.array.plane(0).pool(0).retiredBlockCount(), 1u);
    EXPECT_FALSE(rig.ftl.readOnly());

    rig.expectDataIntact();
    rig.expectInvariantsClean();
}

TEST(FaultRecovery, SpareExhaustionDegradesToReadOnly)
{
    FaultRig rig(/*spares=*/1);
    rig.injector.forceEraseFailures(1);

    sim::Time t = 0;
    for (int round = 0; round < 20 && !rig.ftl.readOnly(); ++round)
        t = rig.overwriteRound(t);

    ASSERT_TRUE(rig.ftl.readOnly());
    EXPECT_EQ(rig.ftl.badBlocks().readOnlyCause(),
              ReadOnlyCause::SpareExhaustion);

    // Writes now fail with a structured rejection, not a panic.
    const std::uint64_t rejected_before = rig.ftl.stats().rejectedWrites;
    const WriteResult res = rig.ftl.writeGroup(0, flash::Lpn{3}, 1, t);
    EXPECT_FALSE(res.accepted);
    EXPECT_GT(rig.ftl.stats().rejectedWrites, rejected_before);

    // Reads keep working on the degraded device.
    const ReadResult rd = rig.ftl.readUnits(flash::Lpn{0}, 8, t);
    EXPECT_GE(rd.done, t);
    EXPECT_EQ(rd.uncorrectablePages, 0u);
    rig.expectDataIntact();
    rig.expectInvariantsClean();
}

TEST(FaultRecovery, UncorrectableReadSurfacesAsStructuredError)
{
    FaultRig rig;
    sim::Time t = rig.overwriteRound(0);

    // A clean read first, to compare durations against.
    const ReadResult clean = rig.ftl.readUnits(flash::Lpn{0}, 1, t);
    EXPECT_EQ(clean.uncorrectablePages, 0u);
    const sim::Time clean_duration = clean.done - t;

    rig.injector.forceReadFailures(1);
    const ReadResult bad = rig.ftl.readUnits(flash::Lpn{0}, 1, clean.done);
    EXPECT_EQ(bad.uncorrectablePages, 1u);
    EXPECT_EQ(rig.ftl.stats().uncorrectableReads, 1u);
    // The full retry ladder was charged before giving up.
    EXPECT_GT(bad.done - clean.done, clean_duration);

    // The mapping is untouched: the next read succeeds.
    const ReadResult again = rig.ftl.readUnits(flash::Lpn{0}, 1, bad.done);
    EXPECT_EQ(again.uncorrectablePages, 0u);
    rig.expectInvariantsClean();
}

namespace {

/** A small write-then-read trace over @p units logical units. */
trace::Trace
writeReadTrace(std::uint32_t units, sim::Time gap)
{
    trace::Trace t("fault-e2e");
    sim::Time now = 0;
    for (std::uint32_t i = 0; i < units; ++i, now += gap) {
        trace::TraceRecord r;
        r.arrival = now;
        r.op = trace::OpType::Write;
        r.lbaSector = units::unitToLba(units::UnitAddr{i});
        r.sizeBytes = units::Bytes{sim::kUnitBytes};
        t.push(r);
    }
    for (std::uint32_t i = 0; i < units; ++i, now += gap) {
        trace::TraceRecord r;
        r.arrival = now;
        r.op = trace::OpType::Read;
        r.lbaSector = units::unitToLba(units::UnitAddr{i});
        r.sizeBytes = units::Bytes{sim::kUnitBytes};
        t.push(r);
    }
    return t;
}

} // namespace

TEST(FaultRecoveryDevice, ReadErrorReachesTheHost)
{
    sim::Simulator s;
    core::ExperimentOptions opts;
    opts.capacityScale = 0.05;
    emmc::EmmcConfig cfg =
        core::applyOptions(core::schemeConfig(core::SchemeKind::HPS),
                           opts);
    cfg.fault = quietFaultConfig();
    auto dev = core::makeDevice(s, core::SchemeKind::HPS, cfg);

    // The first read of the trace hits the planted fault; with no
    // retry budget the request fails for good.
    dev->faultInjector().forceReadFailures(1);
    host::Replayer rep(s, *dev);
    host::ReplayOptions ropts;
    ropts.maxRetries = 0;
    trace::Trace replayed =
        rep.replay(writeReadTrace(4, sim::milliseconds(2)), ropts);

    EXPECT_EQ(dev->stats().readErrorRequests, 1u);
    EXPECT_EQ(rep.stats().errorCompletions, 1u);
    EXPECT_EQ(rep.stats().failedRequests, 1u);
    EXPECT_EQ(rep.stats().retriesScheduled, 0u);
    // Failed or not, every request got its timestamps.
    for (const auto &r : replayed.records())
        EXPECT_TRUE(r.replayed());
}

TEST(FaultRecoveryDevice, HostRetryRecoversATransientReadError)
{
    sim::Simulator s;
    core::ExperimentOptions opts;
    opts.capacityScale = 0.05;
    emmc::EmmcConfig cfg =
        core::applyOptions(core::schemeConfig(core::SchemeKind::HPS),
                           opts);
    cfg.fault = quietFaultConfig();
    auto dev = core::makeDevice(s, core::SchemeKind::HPS, cfg);

    dev->faultInjector().forceReadFailures(1);
    host::Replayer rep(s, *dev);
    host::ReplayOptions ropts;
    ropts.maxRetries = 3;
    rep.replay(writeReadTrace(4, sim::milliseconds(2)), ropts);

    // One error completion, one resubmission, full recovery — and the
    // retry cost is visible as extra latency.
    EXPECT_EQ(rep.stats().errorCompletions, 1u);
    EXPECT_EQ(rep.stats().retriesScheduled, 1u);
    EXPECT_EQ(rep.stats().recoveredRequests, 1u);
    EXPECT_EQ(rep.stats().failedRequests, 0u);
    EXPECT_GT(rep.stats().retryPenalty, 0);
    EXPECT_EQ(dev->stats().readErrorRequests, 1u);
}

TEST(FaultRecoveryDevice, WriteRejectionSurfacesOnDegradedDevice)
{
    // Tiny single-plane device with a one-block spare budget: the
    // first erase failure retires a block and flips it read-only.
    sim::Simulator s;
    emmc::EmmcConfig cfg = core::schemeConfig(core::SchemeKind::PS4);
    cfg.geometry = FaultRig::makeGeom();
    cfg.timing = FaultRig::makeTiming();
    cfg.ftl = FaultRig::makeCfg(/*spares=*/1);
    cfg.fault = quietFaultConfig();
    auto dev = core::makeDevice(s, core::SchemeKind::PS4, cfg);
    dev->faultInjector().forceEraseFailures(1);

    // Overwrite the 8 logical units for several rounds: GC fires, the
    // planted erase failure retires its victim, and the device rejects
    // everything after that.
    trace::Trace t("overwrite-churn");
    sim::Time now = 0;
    for (int round = 0; round < 8; ++round) {
        for (std::uint32_t lpn = 0; lpn < 8; ++lpn,
                           now += sim::milliseconds(2)) {
            trace::TraceRecord r;
            r.arrival = now;
            r.op = trace::OpType::Write;
            r.lbaSector = units::unitToLba(units::UnitAddr{lpn});
            r.sizeBytes = units::Bytes{sim::kUnitBytes};
            t.push(r);
        }
    }
    host::Replayer rep(s, *dev);
    rep.replay(t);

    ASSERT_TRUE(dev->ftl().readOnly());
    EXPECT_GT(dev->stats().writeRejectedRequests, 0u);
    EXPECT_GT(rep.stats().errorCompletions, 0u);
    EXPECT_GT(rep.stats().failedRequests, 0u);

    // Graceful degradation, not corruption: the full audit stays
    // clean on the read-only device.
    check::AuditReport report = check::auditNow(s, *dev);
    EXPECT_TRUE(report.clean())
        << report.totalViolations() << " violation(s)";
}

TEST(FaultDeterminism, GeneratorIsSeedStable)
{
    const workload::AppProfile *p = workload::findProfile("Booting");
    ASSERT_NE(p, nullptr);
    std::ostringstream a;
    std::ostringstream b;
    workload::TraceGenerator(*p, /*seed=*/21).generate(0.02).save(a);
    workload::TraceGenerator(*p, /*seed=*/21).generate(0.02).save(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(FaultDeterminism, SeededFaultReplayIsByteIdentical)
{
    const workload::AppProfile *p = workload::findProfile("Booting");
    ASSERT_NE(p, nullptr);
    trace::Trace t =
        workload::TraceGenerator(*p, /*seed=*/21).generate(0.02);

    core::ExperimentOptions opts;
    opts.capacityScale = 0.05;
    opts.fault.enabled = true;
    opts.fault.seed = 5;
    opts.fault.baseRber = 3e-4;
    opts.fault.programFailProb = 1e-3;

    const core::CaseResult r1 =
        core::runCase(t, core::SchemeKind::HPS, opts);
    const core::CaseResult r2 =
        core::runCase(t, core::SchemeKind::HPS, opts);

    // Same seed, same trace: the whole fault sequence and every
    // per-request timestamp replays identically.
    std::ostringstream s1;
    std::ostringstream s2;
    r1.replayed.save(s1);
    r2.replayed.save(s2);
    EXPECT_EQ(s1.str(), s2.str());
    EXPECT_EQ(r1.correctedReads, r2.correctedReads);
    EXPECT_EQ(r1.readRetryRounds, r2.readRetryRounds);
    EXPECT_EQ(r1.uncorrectableReads, r2.uncorrectableReads);
    EXPECT_EQ(r1.programFailures, r2.programFailures);
    EXPECT_EQ(r1.relocatedPrograms, r2.relocatedPrograms);
    EXPECT_EQ(r1.retiredBlocks, r2.retiredBlocks);
    EXPECT_EQ(r1.hostRetries, r2.hostRetries);
    EXPECT_DOUBLE_EQ(r1.p99ResponseMs, r2.p99ResponseMs);
    // And the model was actually exercised.
    EXPECT_GT(r1.correctedReads + r1.readRetryRounds, 0u);
}

TEST(FaultDeterminism, ZeroRateInjectionIsTimingNeutral)
{
    const workload::AppProfile *p = workload::findProfile("Booting");
    ASSERT_NE(p, nullptr);
    trace::Trace t =
        workload::TraceGenerator(*p, /*seed=*/21).generate(0.02);

    core::ExperimentOptions off;
    off.capacityScale = 0.05;
    core::ExperimentOptions zero = off;
    zero.fault.enabled = true; // attached, but every rate is zero

    const core::CaseResult r_off =
        core::runCase(t, core::SchemeKind::HPS, off);
    const core::CaseResult r_zero =
        core::runCase(t, core::SchemeKind::HPS, zero);

    // The dormant-neutrality contract: an attached injector with zero
    // fault rates charges no latency and changes no outcome.
    std::ostringstream s_off;
    std::ostringstream s_zero;
    r_off.replayed.save(s_off);
    r_zero.replayed.save(s_zero);
    EXPECT_EQ(s_off.str(), s_zero.str());
    EXPECT_EQ(r_zero.correctedReads, 0u);
    EXPECT_EQ(r_zero.uncorrectableReads, 0u);
    EXPECT_EQ(r_zero.hostRetries, 0u);
    EXPECT_DOUBLE_EQ(r_off.meanResponseMs, r_zero.meanResponseMs);
}
