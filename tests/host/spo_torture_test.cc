/**
 * @file
 * SPO torture: hundreds of seeded power cuts injected into real
 * workload replays on a tiny write-through device. After every cut
 * the device recovers through the journal/OOB-scan path; at end of
 * run the WriteDurabilityLedger proves no acknowledged-and-durable
 * write was lost and a full audit revalidates every invariant
 * (DESIGN.md §13).
 *
 * Crash schedules are pure functions of (count, seed, horizon), so a
 * failure names its workload and seed; the harness then shrinks to
 * the single failing tick so the repro is one cut, not eighty.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/audit.hh"
#include "check/durability.hh"
#include "emmc/device.hh"
#include "host/replayer.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

namespace {

emmc::EmmcConfig
tinyConfig()
{
    emmc::EmmcConfig cfg;
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 1;
    cfg.geometry.planesPerDie = 2;
    // Real app traces carry multi-MB bursts (Booting peaks at ~11.5MB
    // in one request): 256 blocks x 16 pages x 2 planes = 8192 pages
    // (6144 logical units after OP) fits the largest generated request
    // while staying small enough that GC churns constantly.
    cfg.geometry.pagesPerBlock = 16;
    cfg.geometry.pools = {flash::PoolConfig{4096, 256}};
    cfg.timing.pools = {flash::Timing::page4k()};
    cfg.ftl.opRatio = 0.25;
    return cfg;
}

std::unique_ptr<emmc::EmmcDevice>
tinyDevice(sim::Simulator &s)
{
    return std::make_unique<emmc::EmmcDevice>(s, tinyConfig());
}

trace::Trace
genTrace(const std::string &name, double scale, std::uint64_t seed)
{
    const workload::AppProfile *p = workload::findProfile(name);
    EXPECT_NE(p, nullptr);
    workload::TraceGenerator g(*p, seed);
    return g.generate(scale);
}

/** Outcome of one crash-injected replay. */
struct TortureOutcome
{
    std::uint64_t cuts = 0;       ///< power cuts executed
    std::uint64_t tornPages = 0;  ///< programs torn mid-flight
    std::uint64_t reissued = 0;   ///< requests re-sent after power-up
    std::uint64_t lostWrites = 0; ///< ledger violations (must be 0)
    std::uint64_t auditViolations = 0;
    std::string detail; ///< first violation, when any
};

/**
 * Replay @p t on a fresh tiny write-through device with power cuts at
 * @p ticks, then settle the ledger and audit everything.
 */
TortureOutcome
runTorture(const trace::Trace &t, std::vector<sim::Time> ticks,
           bool notify = false)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);

    // Write-through device: every acknowledged write is immediately
    // owed durability across any later crash.
    check::WriteDurabilityLedger ledger(dev->ftl().logicalUnits(),
                                        /*write_through=*/true);
    dev->setTraceHook([&ledger](const emmc::CompletedRequest &c) {
        if (c.ok() && c.request.write)
            ledger.noteAcked(flash::Lpn{c.request.firstUnit().value()},
                             c.request.sizeUnits());
    });

    host::Replayer rep(s, *dev);
    host::ReplayOptions opts;
    opts.spo.ticks = std::move(ticks);
    opts.spo.notify = notify;
    opts.spo.powerOnDelay = sim::milliseconds(1);
    rep.replay(t, opts);

    TortureOutcome out;
    out.cuts = rep.stats().spoEvents;
    out.tornPages = dev->spoStats().tornPages;
    out.reissued = rep.stats().reissuedRequests;

    check::CheckContext ctx("write-durability");
    ledger.verify(dev->ftl(), ctx);
    out.lostWrites = ctx.failures();
    if (!ctx.violations().empty())
        out.detail = ctx.violations().front();

    check::AuditReport audit = check::auditNow(s, *dev);
    out.auditViolations = audit.totalViolations();
    if (out.detail.empty() && !audit.clean()) {
        for (const check::CheckerSummary &c : audit.checkers)
            if (!c.violations.empty()) {
                out.detail = c.name + ": " + c.violations.front();
                break;
            }
    }
    return out;
}

/**
 * Shrink a failing schedule: find the first tick that reproduces a
 * loss or audit violation when injected alone. Returns 0 when no
 * single tick fails (the failure needs the interaction).
 */
sim::Time
shrinkToFailingTick(const trace::Trace &t,
                    const std::vector<sim::Time> &ticks)
{
    for (sim::Time tick : ticks) {
        TortureOutcome one = runTorture(t, {tick});
        if (one.lostWrites > 0 || one.auditViolations > 0)
            return tick;
    }
    return 0;
}

} // namespace

TEST(SpoTorture, HundredsOfSeededCrashesLoseNoAcknowledgedWrite)
{
    struct Leg
    {
        const char *profile;
        double scale;
        std::uint64_t traceSeed;
        std::uint64_t spoSeed;
    };
    // 3 workloads x 80 drawn ticks = 240 seeded crash points; a few
    // may land inside a previous outage and be skipped, so assert on
    // the executed-cut floor of 200 below.
    const Leg legs[] = {
        {"Messaging", 0.1, 2, 11},
        {"Twitter", 0.1, 3, 13},
        {"Booting", 0.05, 5, 17},
    };

    std::uint64_t total_cuts = 0;
    std::uint64_t total_torn = 0;
    std::uint64_t total_reissued = 0;
    for (const Leg &leg : legs) {
        trace::Trace t = genTrace(leg.profile, leg.scale, leg.traceSeed);
        ASSERT_GT(t.duration(), 0);
        std::vector<sim::Time> ticks =
            fault::drawSpoTicks(80, leg.spoSeed, t.duration());

        TortureOutcome out = runTorture(t, ticks);
        total_cuts += out.cuts;
        total_torn += out.tornPages;
        total_reissued += out.reissued;

        if (out.lostWrites > 0 || out.auditViolations > 0) {
            const sim::Time bad = shrinkToFailingTick(t, ticks);
            FAIL() << leg.profile << " (trace seed " << leg.traceSeed
                   << ", spo seed " << leg.spoSeed << "): "
                   << out.lostWrites << " lost write(s), "
                   << out.auditViolations << " audit violation(s) — "
                   << out.detail << " — repro: single tick "
                   << (bad > 0 ? bad : -1)
                   << (bad > 0 ? " ns" : " (needs full schedule)");
        }
    }

    // The torture must actually bite: enough executed cuts, and at
    // least some of them caught a program mid-flight.
    EXPECT_GE(total_cuts, 200u);
    EXPECT_GT(total_torn, 0u);
    EXPECT_GT(total_reissued, 0u);
}

TEST(SpoTorture, NotifiedShutdownTearsNothing)
{
    // POWER_OFF_NOTIFICATION flushes and checkpoints before the rail
    // drops: same schedule, zero torn pages, and still no losses.
    trace::Trace t = genTrace("Messaging", 0.1, 2);
    std::vector<sim::Time> ticks =
        fault::drawSpoTicks(40, 23, t.duration());

    TortureOutcome out = runTorture(t, ticks, /*notify=*/true);
    EXPECT_GE(out.cuts, 30u);
    EXPECT_EQ(out.tornPages, 0u);
    EXPECT_EQ(out.lostWrites, 0u) << out.detail;
    EXPECT_EQ(out.auditViolations, 0u) << out.detail;
}

TEST(SpoTorture, BackToBackCrashesDuringRecoveryAreSkippedSafely)
{
    // Ticks drawn inside another cut's outage window are skipped, not
    // queued: the schedule below packs cuts 100us apart against a 1ms
    // power-on delay, so most land mid-outage.
    trace::Trace t = genTrace("Twitter", 0.05, 7);
    std::vector<sim::Time> ticks;
    const sim::Time start = t.duration() / 4;
    for (int i = 0; i < 20; ++i)
        ticks.push_back(start + i * sim::microseconds(100));

    TortureOutcome out = runTorture(t, ticks);
    EXPECT_GE(out.cuts, 1u);
    EXPECT_LT(out.cuts, 20u);
    EXPECT_EQ(out.lostWrites, 0u) << out.detail;
    EXPECT_EQ(out.auditViolations, 0u) << out.detail;
}
