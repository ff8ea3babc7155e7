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
#include <vector>

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
    return std::make_unique<emmc::EmmcDevice>(s, tinyConfig());
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

namespace {

/** One device completion as the device's trace hook reports it. */
struct Completion
{
    std::uint64_t id = 0;
    sim::Time arrival = 0;
    sim::Time serviceStart = 0;
    sim::Time finish = 0;

    bool operator==(const Completion &) const = default;
};

/** Every completion of one replay, in completion order. */
struct Replayed
{
    std::vector<Completion> completions;
    trace::Trace out; ///< stamped trace (in-memory path only)
    host::StreamReplayResult stream; ///< stream path only
};

/** Replay @p t on a fresh tiny device through replay() or
 *  replayStream(), capturing every completion from the trace hook. */
Replayed
replayCapturing(const trace::Trace &t, bool stream)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    Replayed r;
    dev->setTraceHook([&r](const emmc::CompletedRequest &c) {
        r.completions.push_back(
            {c.request.id, c.request.arrival, c.serviceStart, c.finish});
    });
    host::Replayer rep(s, *dev);
    if (stream) {
        trace::MemoryTraceSource src(t);
        r.stream = rep.replayStream(src);
    } else {
        r.out = rep.replay(t);
    }
    return r;
}

void
expectSameCompletions(const std::vector<Completion> &a,
                      const std::vector<Completion> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i])
            << "completion " << i << ": id " << a[i].id << " vs "
            << b[i].id << ", finish " << a[i].finish << " vs "
            << b[i].finish;
    }
}

} // namespace

TEST(StreamReplay, MatchesInMemoryReplay)
{
    const trace::Trace t = mixedTrace(400);
    const Replayed mem = replayCapturing(t, /*stream=*/false);
    const Replayed str = replayCapturing(t, /*stream=*/true);

    // Both paths schedule arrivals in the same sequence band, so the
    // device sees an identical event order: every completion matches
    // in id, arrival, service start and finish, in the same order.
    ASSERT_EQ(mem.completions.size(), t.size());
    expectSameCompletions(mem.completions, str.completions);

    // The stamped trace carries exactly the device's timestamps, and
    // the streamed histogram folds exactly its response times.
    sim::Histogram hist(sim::latencyBoundsMs());
    for (const Completion &c : mem.completions) {
        const trace::TraceRecord &r = mem.out[c.id];
        EXPECT_EQ(r.serviceStart, c.serviceStart);
        EXPECT_EQ(r.finish, c.finish);
        hist.add(sim::toMilliseconds(r.responseTime()));
    }
    ASSERT_EQ(str.stream.requests, t.size());
    ASSERT_EQ(str.stream.responseHistMs.bucketCount(), hist.bucketCount());
    for (std::size_t i = 0; i < hist.bucketCount(); ++i)
        EXPECT_EQ(str.stream.responseHistMs.bucketCountAt(i),
                  hist.bucketCountAt(i))
            << "bucket " << i;
}

TEST(StreamReplay, DeterministicAcrossRuns)
{
    const trace::Trace t = mixedTrace(200);
    const Replayed a = replayCapturing(t, /*stream=*/true);
    const Replayed b = replayCapturing(t, /*stream=*/true);
    ASSERT_EQ(a.completions.size(), t.size());
    expectSameCompletions(a.completions, b.completions);
    EXPECT_EQ(a.stream.requests, b.stream.requests);
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
