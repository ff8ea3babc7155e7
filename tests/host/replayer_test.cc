/**
 * @file
 * Replayer tests: timestamp stamping, open-loop arrivals, address
 * wrapping, agreement with device statistics, and the tie rule
 * between arrivals and device events on both replay paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "emmc/device.hh"
#include "host/replayer.hh"
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
tinyDevice(sim::Simulator &s, const emmc::EmmcConfig &cfg = tinyConfig())
{
    return std::make_unique<emmc::EmmcDevice>(s, cfg);
}

trace::TraceRecord
oneUnit(sim::Time arrival, std::int64_t unit, bool write)
{
    trace::TraceRecord r;
    r.arrival = arrival;
    r.lbaSector = units::unitToLba(units::UnitAddr{unit});
    r.sizeBytes = units::Bytes{sim::kUnitBytes};
    r.op = write ? trace::OpType::Write : trace::OpType::Read;
    return r;
}

/** How the device served each request, as its trace hook saw it. */
struct Served
{
    std::vector<emmc::CompletedRequest> byId;
    std::uint64_t noWaitRequests = 0;
    sim::Time lastFinish = 0;
};

/** Replay @p t on a fresh device through replay() or replayStream(). */
Served
serve(const trace::Trace &t, bool stream,
      const emmc::EmmcConfig &cfg = tinyConfig())
{
    sim::Simulator s;
    auto dev = tinyDevice(s, cfg);
    Served out;
    out.byId.resize(t.size());
    dev->setTraceHook([&out](const emmc::CompletedRequest &c) {
        out.byId[c.request.id] = c;
        out.lastFinish = std::max(out.lastFinish, c.finish);
    });
    host::Replayer rep(s, *dev);
    if (stream) {
        trace::MemoryTraceSource src(t);
        rep.replayStream(src);
    } else {
        rep.replay(t);
    }
    out.noWaitRequests = dev->stats().noWaitRequests;
    return out;
}

} // namespace

TEST(Replayer, StampsEveryRecord)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);

    workload::FixedStreamSpec spec;
    spec.count = 10;
    spec.gap = sim::milliseconds(5);
    trace::Trace in = workload::makeFixedStream(spec);
    trace::Trace out = rep.replay(in);

    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(out[i].replayed());
        EXPECT_EQ(out[i].arrival, in[i].arrival);
        EXPECT_GE(out[i].serviceStart, out[i].arrival);
        EXPECT_GT(out[i].finish, out[i].serviceStart);
    }
    EXPECT_EQ(out.validate(), "");
}

TEST(Replayer, InputIsNotMutated)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);
    workload::FixedStreamSpec spec;
    spec.count = 3;
    trace::Trace in = workload::makeFixedStream(spec);
    rep.replay(in);
    for (const auto &r : in.records())
        EXPECT_FALSE(r.replayed());
}

TEST(Replayer, OpenLoopKeepsArrivals)
{
    // Back-to-back arrivals (gap 0) queue up; arrivals stay at 0 and
    // responses grow with queue depth.
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);
    workload::FixedStreamSpec spec;
    spec.count = 8;
    spec.gap = 0;
    trace::Trace out = rep.replay(workload::makeFixedStream(spec));
    for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_EQ(out[i].arrival, 0);
        EXPECT_GE(out[i].responseTime(), out[i - 1].responseTime());
    }
    EXPECT_EQ(dev->stats().noWaitRequests, 1u);
}

TEST(Replayer, WrapsAddressesBeyondLogicalSpace)
{
    sim::Simulator s;
    auto dev = tinyDevice(s); // 512 raw units, 384 logical
    host::Replayer rep(s, *dev);

    trace::Trace in("big-address");
    trace::TraceRecord r;
    r.arrival = 0;
    r.lbaSector = units::unitToLba(units::UnitAddr{1'000'000});
    r.sizeBytes = units::Bytes{sim::kUnitBytes};
    r.op = trace::OpType::Write;
    in.push(r);
    trace::Trace out = rep.replay(in);
    EXPECT_TRUE(out[0].replayed());
    // Device accounting confirms the write landed.
    EXPECT_EQ(dev->ftl().stats().hostUnitsWritten, 1u);
}

TEST(Replayer, DeviceStatsAgreeWithTrace)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);
    workload::FixedStreamSpec spec;
    spec.count = 20;
    spec.gap = sim::milliseconds(2);
    spec.write = true;
    trace::Trace out = rep.replay(workload::makeFixedStream(spec));

    const emmc::DeviceStats &ds = dev->stats();
    EXPECT_EQ(ds.requests, 20u);
    EXPECT_EQ(ds.writeRequests, 20u);

    // Mean response computed from the trace matches the device's.
    double sum = 0.0;
    for (const auto &r : out.records())
        sum += sim::toMilliseconds(r.responseTime());
    EXPECT_NEAR(ds.responseMs.mean(), sum / 20.0, 1e-9);
}

TEST(Replayer, SimultaneousArrivalsServeInTraceOrder)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);

    trace::Trace in("simultaneous");
    for (int i = 0; i < 4; ++i) {
        trace::TraceRecord r;
        r.arrival = 0;
        r.lbaSector = units::unitToLba(units::UnitAddr{i * 8});
        r.sizeBytes = units::Bytes{sim::kUnitBytes};
        r.op = trace::OpType::Read;
        in.push(r);
    }
    trace::Trace out = rep.replay(in);
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_GE(out[i].serviceStart, out[i - 1].finish);
}

TEST(Replayer, EmptyTraceCompletes)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);
    trace::Trace out = rep.replay(trace::Trace("empty"));
    EXPECT_EQ(out.size(), 0u);
}

TEST(Replayer, SnapshotAppendsToTheCallersWriter)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);
    workload::FixedStreamSpec spec;
    spec.count = 10;
    spec.gap = sim::milliseconds(5);
    trace::Trace in = workload::makeFixedStream(spec);

    core::BinWriter w;
    w.u32(0xfeedu);
    host::ReplayOptions opts;
    opts.snapshotAt = in.duration() / 2;
    opts.snapshotOut = &w;
    rep.replay(in, opts);

    // The caller's bytes stay in front; the image follows them.
    core::BinReader r(w.data());
    EXPECT_EQ(r.u32(), 0xfeedu);
    EXPECT_EQ(r.str(), "emmcsim-snap");
    EXPECT_TRUE(r.ok());
}

TEST(Replayer, SnapshotNeedsAWriter)
{
    sim::Simulator s;
    auto dev = tinyDevice(s);
    host::Replayer rep(s, *dev);
    workload::FixedStreamSpec spec;
    spec.count = 3;
    trace::Trace in = workload::makeFixedStream(spec);
    host::ReplayOptions opts;
    opts.snapshotAt = 0;
    EXPECT_DEATH(rep.replay(in, opts), "snapshotOut");
}

TEST(ReplayerTies, ArrivalOnACompletionTickWinsOnBothPaths)
{
    // The second request arrives on the exact tick the first one's
    // completion fires. Arrivals win ties, so it finds the device
    // still busy: it waits (no NoWait credit) and starts on that tick.
    trace::Trace first("first");
    first.push(oneUnit(0, 0, true));
    const sim::Time done = serve(first, false).lastFinish;
    ASSERT_GT(done, 0);

    trace::Trace t("tie");
    t.push(oneUnit(0, 0, true));
    t.push(oneUnit(done, 8, false));
    for (bool stream : {false, true}) {
        SCOPED_TRACE(stream ? "replayStream" : "replay");
        const Served got = serve(t, stream);
        EXPECT_EQ(got.noWaitRequests, 1u);
        EXPECT_TRUE(got.byId[1].waited);
        EXPECT_EQ(got.byId[1].serviceStart, done);
    }
}

TEST(ReplayerTies, ArrivalOnAnIdleGcTickWinsOnBothPaths)
{
    // A burst of overwrites leaves the tiny device short of free
    // blocks with reclaimable victims, so its first idle-GC tick
    // (idleGcDelay after the burst drains) has work to do.
    emmc::EmmcConfig cfg = tinyConfig();
    cfg.idleGcEnabled = true;
    trace::Trace burst("burst");
    for (int i = 0; i < 400; ++i)
        burst.push(oneUnit(0, i % 50, true));
    const sim::Time tick = serve(burst, false, cfg).lastFinish +
                           cfg.idleGcDelay;

    for (bool stream : {false, true}) {
        SCOPED_TRACE(stream ? "replayStream" : "replay");
        // Control: one tick later, the read queues behind a GC step.
        trace::Trace late = burst;
        late.push(oneUnit(tick + 1, 100, false));
        const Served after = serve(late, stream, cfg);
        EXPECT_GT(after.byId[400].serviceStart, tick + 1)
            << "idle GC did not run at its tick; the tie below would "
               "prove nothing";

        // On the tick itself the arrival goes first and the GC tick
        // finds the device busy.
        trace::Trace tied = burst;
        tied.push(oneUnit(tick, 100, false));
        const Served on = serve(tied, stream, cfg);
        EXPECT_FALSE(on.byId[400].waited);
        EXPECT_EQ(on.byId[400].serviceStart, tick);
    }
}
