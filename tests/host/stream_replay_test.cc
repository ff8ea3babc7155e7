/**
 * @file
 * Streaming replay tests: replayStream() must drive the device
 * exactly like replay() on the same records — same counters, same
 * metrics, (at the library level) a byte-identical run report, and
 * the same recovery from seeded power cuts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "check/durability.hh"
#include "core/experiment.hh"
#include "emmc/device.hh"
#include "fault/spo.hh"
#include "host/replayer.hh"
#include "obs/report.hh"
#include "trace/source.hh"
#include "workload/fixed.hh"

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
    cfg.geometry.pagesPerBlock = 8;
    cfg.geometry.pools = {flash::PoolConfig{4096, 32}};
    cfg.timing.pools = {flash::Timing::page4k()};
    cfg.ftl.opRatio = 0.25;
    return cfg;
}

std::unique_ptr<emmc::EmmcDevice>
tinyDevice(sim::Simulator &s)
{
    return std::make_unique<emmc::EmmcDevice>(
        s, tinyConfig(),
        std::make_unique<ftl::SinglePoolDistributor>(0, 1, "4PS"));
}

/** Mixed read/write trace with same-tick ties and varied sizes. */
trace::Trace
mixedTrace(std::size_t n)
{
    trace::Trace t("Mixed");
    for (std::size_t i = 0; i < n; ++i) {
        trace::TraceRecord r;
        // Pairs share an arrival tick: ordering between same-tick
        // arrivals is exactly what must match across paths.
        r.arrival = static_cast<sim::Time>(i / 2 * 2000);
        r.lbaSector = units::Lba{((i * 131) % 900) *
                                 static_cast<std::uint64_t>(
                                     sim::kSectorsPerUnit)};
        r.sizeBytes = units::Bytes{(1 + i % 4) * sim::kUnitBytes};
        r.op = i % 3 == 0 ? trace::OpType::Read : trace::OpType::Write;
        t.push(r);
    }
    return t;
}

} // namespace

TEST(StreamReplay, MatchesInMemoryReplay)
{
    const trace::Trace t = mixedTrace(400);

    sim::Simulator s1;
    auto dev1 = tinyDevice(s1);
    host::Replayer rep1(s1, *dev1);
    const trace::Trace out = rep1.replay(t);

    sim::Simulator s2;
    auto dev2 = tinyDevice(s2);
    host::Replayer rep2(s2, *dev2);
    trace::MemoryTraceSource src(t);
    const host::StreamReplayResult sres = rep2.replayStream(src);

    ASSERT_EQ(sres.requests, t.size());
    EXPECT_EQ(sres.writeRequests, t.writeCount());
    EXPECT_EQ(sres.readBytes + sres.writeBytes, t.totalBytes());
    EXPECT_EQ(sres.writeBytes, t.writtenBytes());
    EXPECT_EQ(sres.firstArrival, t[0].arrival);
    EXPECT_EQ(sres.lastArrival, t[t.size() - 1].arrival);

    // Per-record aggregates must agree exactly with the stamped trace:
    // both paths schedule arrivals in the same sequence band, so the
    // device sees an identical event order.
    sim::Time last_finish = 0;
    sim::OnlineStats resp;
    sim::OnlineStats svc;
    for (const auto &r : out.records()) {
        last_finish = std::max(last_finish, r.finish);
        resp.add(sim::toMilliseconds(r.responseTime()));
        svc.add(sim::toMilliseconds(r.serviceTime()));
    }
    EXPECT_EQ(sres.lastFinish, last_finish);
    EXPECT_EQ(sres.responseMs.count(), out.size());
    EXPECT_DOUBLE_EQ(sres.responseMs.mean(), resp.mean());
    EXPECT_DOUBLE_EQ(sres.serviceMs.mean(), svc.mean());
    EXPECT_EQ(sres.responseHistMs.total(), out.size());
}

TEST(StreamReplay, DeterministicAcrossRuns)
{
    const trace::Trace t = mixedTrace(200);
    host::StreamReplayResult r[2];
    for (int i = 0; i < 2; ++i) {
        sim::Simulator s;
        auto dev = tinyDevice(s);
        host::Replayer rep(s, *dev);
        trace::MemoryTraceSource src(t);
        r[i] = rep.replayStream(src);
    }
    EXPECT_EQ(r[0].requests, r[1].requests);
    EXPECT_EQ(r[0].lastFinish, r[1].lastFinish);
    EXPECT_DOUBLE_EQ(r[0].responseMs.mean(), r[1].responseMs.mean());
    EXPECT_DOUBLE_EQ(r[0].serviceMs.mean(), r[1].serviceMs.mean());
}

TEST(StreamReplay, CaseResultColumnsMatchInMemoryPath)
{
    const trace::Trace t = mixedTrace(300);
    core::ExperimentOptions opts;
    opts.capacityScale = 0.02;
    opts.prefill = 0.3;

    const core::CaseResult a = core::runCase(t, core::SchemeKind::HPS,
                                             opts);
    trace::MemoryTraceSource src(t);
    const core::CaseResult b =
        core::runCaseStream(src, core::SchemeKind::HPS, opts);

    EXPECT_EQ(b.traceName, a.traceName);
    EXPECT_EQ(b.requests, a.requests);
    EXPECT_DOUBLE_EQ(b.meanResponseMs, a.meanResponseMs);
    EXPECT_DOUBLE_EQ(b.meanServiceMs, a.meanServiceMs);
    EXPECT_DOUBLE_EQ(b.noWaitPct, a.noWaitPct);
    EXPECT_DOUBLE_EQ(b.writeAmplification, a.writeAmplification);
    EXPECT_EQ(b.pagePrograms, a.pagePrograms);
    EXPECT_EQ(b.pageReads, a.pageReads);
    EXPECT_EQ(b.totalErases, a.totalErases);
    EXPECT_EQ(b.gcRelocatedUnits, a.gcRelocatedUnits);
    EXPECT_EQ(b.packedCommands, a.packedCommands);
    // The streaming path keeps no per-record storage: replayed stays
    // empty and the tail comes from the histogram estimate instead.
    EXPECT_EQ(b.replayed.size(), 0u);
    EXPECT_GE(b.p99ResponseMs, 0.0);
}

TEST(StreamReplay, RunReportByteIdenticalToInMemoryPath)
{
    const trace::Trace t = mixedTrace(300);
    core::ExperimentOptions opts;
    opts.capacityScale = 0.02;
    opts.obs.metrics = true;
    opts.obs.attribution = true;
    opts.obs.sampleWindow = sim::milliseconds(1);

    const core::CaseResult a = core::runCase(t, core::SchemeKind::HPS,
                                             opts);
    trace::MemoryTraceSource src(t);
    const core::CaseResult b =
        core::runCaseStream(src, core::SchemeKind::HPS, opts);

    auto render = [](const core::CaseResult &res) {
        obs::RunReport report;
        report.setMeta("tool", "stream_replay_test");
        report.setMeta("trace", res.traceName);
        report.addRun(res.scheme, res.obs.metrics, res.obs.series,
                      res.obs.attribution);
        std::ostringstream os;
        report.writeJson(os);
        return os.str();
    };
    EXPECT_EQ(render(a), render(b))
        << "streaming replay diverged from the in-memory path";
}

TEST(StreamReplay, SeededPowerCutsMatchInMemoryPath)
{
    const trace::Trace t = mixedTrace(600);
    const std::vector<sim::Time> cuts =
        fault::drawSpoTicks(6, 11, t[t.size() - 1].arrival);

    // Library level: both paths see the same cuts at the same points
    // of the same event order, and neither loses an acknowledged
    // write on this write-through device.
    host::ReplayStats stats[2];
    emmc::DeviceStats dev_stats[2];
    for (int stream = 0; stream < 2; ++stream) {
        SCOPED_TRACE(stream ? "replayStream" : "replay");
        sim::Simulator s;
        auto dev = tinyDevice(s);
        check::WriteDurabilityLedger ledger(dev->ftl().logicalUnits(),
                                            /*write_through=*/true);
        dev->setTraceHook([&ledger](const emmc::CompletedRequest &c) {
            if (c.ok() && c.request.write)
                ledger.noteAcked(
                    flash::Lpn{c.request.firstUnit().value()},
                    c.request.sizeUnits());
        });
        host::Replayer rep(s, *dev);
        host::ReplayOptions opts;
        opts.spo.ticks = cuts;
        opts.spo.powerOnDelay = sim::milliseconds(1);
        if (stream) {
            trace::MemoryTraceSource src(t);
            EXPECT_EQ(rep.replayStream(src, opts).requests, t.size());
        } else {
            rep.replay(t, opts);
        }
        stats[stream] = rep.stats();
        dev_stats[stream] = dev->stats();
        check::CheckContext ctx("write-durability");
        ledger.verify(dev->ftl(), ctx);
        EXPECT_EQ(ctx.failures(), 0u);
    }
    EXPECT_GT(stats[0].spoEvents, 0u);
    EXPECT_EQ(stats[1].spoEvents, stats[0].spoEvents);
    EXPECT_EQ(stats[1].spoSkipped, stats[0].spoSkipped);
    EXPECT_EQ(stats[1].reissuedRequests, stats[0].reissuedRequests);
    EXPECT_EQ(stats[1].deferredSubmissions, stats[0].deferredSubmissions);
    EXPECT_EQ(stats[1].recoveryTime, stats[0].recoveryTime);
    EXPECT_EQ(dev_stats[1].requests, dev_stats[0].requests);
    EXPECT_EQ(dev_stats[1].noWaitRequests, dev_stats[0].noWaitRequests);
    EXPECT_DOUBLE_EQ(dev_stats[1].responseMs.mean(),
                     dev_stats[0].responseMs.mean());

    // Experiment level: the CaseResult columns agree too.
    core::ExperimentOptions opts;
    opts.capacityScale = 0.02;
    opts.prefill = 0.3;
    opts.spo.ticks = cuts;
    opts.spo.powerOnDelay = sim::milliseconds(1);
    const core::CaseResult a = core::runCase(t, core::SchemeKind::HPS,
                                             opts);
    trace::MemoryTraceSource src(t);
    const core::CaseResult b =
        core::runCaseStream(src, core::SchemeKind::HPS, opts);
    EXPECT_GT(a.spoEvents, 0u);
    EXPECT_EQ(b.requests, a.requests);
    EXPECT_DOUBLE_EQ(b.meanResponseMs, a.meanResponseMs);
    EXPECT_DOUBLE_EQ(b.meanServiceMs, a.meanServiceMs);
    EXPECT_DOUBLE_EQ(b.noWaitPct, a.noWaitPct);
    EXPECT_DOUBLE_EQ(b.writeAmplification, a.writeAmplification);
    EXPECT_EQ(b.pagePrograms, a.pagePrograms);
    EXPECT_EQ(b.totalErases, a.totalErases);
    EXPECT_EQ(b.spoEvents, a.spoEvents);
    EXPECT_EQ(b.spoTornPages, a.spoTornPages);
    EXPECT_EQ(b.reissuedRequests, a.reissuedRequests);
    EXPECT_DOUBLE_EQ(b.recoveryTimeMs, a.recoveryTimeMs);
    EXPECT_EQ(b.journalPagesFlushed, a.journalPagesFlushed);
}
