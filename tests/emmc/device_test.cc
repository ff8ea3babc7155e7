/**
 * @file
 * EmmcDevice behaviour tests on a small device: command
 * serialization, NoWait semantics, packing, power mode, RAM buffer,
 * idle GC, and space utilization.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>

#include "core/scheme.hh"
#include "emmc/device.hh"
#include "sim/simulator.hh"

using namespace emmcsim;
using namespace emmcsim::emmc;

namespace {

/** Small single-pool device config (fast to construct). */
EmmcConfig
tinyConfig(std::uint32_t page_bytes = 4096)
{
    EmmcConfig cfg;
    cfg.name = page_bytes == 4096 ? "4PS" : "8PS";
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 1;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.pagesPerBlock = 8;
    cfg.geometry.pools = {flash::PoolConfig{page_bytes, 32}};
    cfg.timing.pools = {page_bytes == 4096 ? flash::Timing::page4k()
                                           : flash::Timing::page8k()};
    cfg.ftl.opRatio = 0.25;
    return cfg;
}

IoRequest
makeReq(std::uint64_t id, sim::Time arrival, std::uint64_t unit,
        std::uint32_t units, bool write)
{
    IoRequest r;
    r.id = id;
    r.arrival = arrival;
    r.lbaSector = emmcsim::units::unitToLba(
        emmcsim::units::UnitAddr{static_cast<std::int64_t>(unit)});
    r.sizeBytes = emmcsim::units::unitsToBytes(units);
    r.write = write;
    return r;
}

/** Submit all requests at their arrival times and run to completion. */
std::vector<CompletedRequest>
runRequests(sim::Simulator &s, EmmcDevice &dev,
            const std::vector<IoRequest> &reqs)
{
    std::vector<CompletedRequest> done;
    dev.setCompletionCallback(
        [&done](const CompletedRequest &c) { done.push_back(c); });
    for (const IoRequest &r : reqs)
        s.schedule(r.arrival, [&dev, r] { dev.submit(r); });
    s.run();
    return done;
}

/** Resident bytes of this process (/proc/self/statm); -1 if unknown. */
std::int64_t
residentBytes()
{
    std::ifstream in("/proc/self/statm");
    std::int64_t size = 0;
    std::int64_t resident = -1;
    if (!(in >> size >> resident))
        return -1;
    return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

/** Minor page faults this process has taken so far. */
long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

} // namespace

TEST(EmmcDevice, SingleReadTimestamps)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    auto done = runRequests(s, dev, {makeReq(1, 100, 0, 1, false)});

    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].request.id, 1u);
    EXPECT_EQ(done[0].serviceStart, 100);
    EXPECT_GT(done[0].finish, 100);
    EXPECT_FALSE(done[0].waited);
    EXPECT_EQ(dev.stats().requests, 1u);
    EXPECT_EQ(dev.stats().readRequests, 1u);
    EXPECT_EQ(dev.stats().noWaitRequests, 1u);
}

TEST(EmmcDevice, ReadServiceTimeIncludesAllPhases)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    EmmcDevice dev(s, cfg);
    auto done = runRequests(s, dev, {makeReq(0, 0, 0, 1, false)});
    sim::Time service = done[0].finish - done[0].serviceStart;
    // command overhead + array read + page cmd + transfer
    sim::Time expect = cfg.commandOverhead +
                       cfg.timing.pools[0].readLatency +
                       cfg.timing.pageCmdOverhead +
                       cfg.timing.transferTime(4096);
    EXPECT_EQ(service, expect);
}

TEST(EmmcDevice, SecondRequestWaitsWhileBusy)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    auto done = runRequests(
        s, dev,
        {makeReq(0, 0, 0, 1, false), makeReq(1, 10, 8, 1, false)});
    ASSERT_EQ(done.size(), 2u);
    EXPECT_FALSE(done[0].waited);
    EXPECT_TRUE(done[1].waited);
    // Second starts exactly when the first finishes.
    EXPECT_EQ(done[1].serviceStart, done[0].finish);
    EXPECT_EQ(dev.stats().noWaitRequests, 1u);
}

TEST(EmmcDevice, WellSpacedRequestsNeverWait)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    std::vector<IoRequest> reqs;
    for (int i = 0; i < 5; ++i) {
        reqs.push_back(makeReq(static_cast<std::uint64_t>(i),
                               sim::milliseconds(100) * i,
                               static_cast<std::uint64_t>(i), 1, false));
    }
    auto done = runRequests(s, dev, reqs);
    EXPECT_EQ(dev.stats().noWaitRequests, 5u);
    EXPECT_DOUBLE_EQ(dev.stats().noWaitRatio(), 1.0);
    for (const auto &c : done)
        EXPECT_EQ(c.serviceStart, c.request.arrival);
}

TEST(EmmcDevice, QueuedWritesPackIntoOneCommand)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    EmmcDevice dev(s, cfg);
    // First request occupies the device; three writes queue behind and
    // pack into a single command.
    std::vector<IoRequest> reqs = {makeReq(0, 0, 0, 4, true),
                                   makeReq(1, 1, 8, 1, true),
                                   makeReq(2, 2, 16, 1, true),
                                   makeReq(3, 3, 24, 1, true)};
    auto done = runRequests(s, dev, reqs);
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(dev.stats().commands, 2u);
    EXPECT_EQ(dev.packingStats().packedCommands, 1u);
    EXPECT_EQ(dev.packingStats().packedRequests, 3u);
    EXPECT_TRUE(done[1].packed);
    EXPECT_EQ(done[1].finish, done[3].finish); // shared completion
}

TEST(EmmcDevice, PackingDisabledKeepsCommandsSeparate)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.packing.enabled = false;
    EmmcDevice dev(s, cfg);
    std::vector<IoRequest> reqs = {makeReq(0, 0, 0, 1, true),
                                   makeReq(1, 1, 8, 1, true),
                                   makeReq(2, 2, 16, 1, true)};
    runRequests(s, dev, reqs);
    EXPECT_EQ(dev.stats().commands, 3u);
    EXPECT_EQ(dev.packingStats().packedCommands, 0u);
}

TEST(EmmcDevice, WakePenaltyInflatesServiceAfterLongIdle)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.power.enabled = true;
    cfg.power.idleThreshold = sim::milliseconds(200);
    cfg.power.wakeLatency = sim::milliseconds(5);
    EmmcDevice dev(s, cfg);
    auto done = runRequests(
        s, dev,
        {makeReq(0, 0, 0, 1, false),
         makeReq(1, sim::seconds(1), 8, 1, false)});
    sim::Time s0 = done[0].finish - done[0].serviceStart;
    sim::Time s1 = done[1].finish - done[1].serviceStart;
    // The first request arrives at t=0 with zero idle time (warm); the
    // second slept a full second and pays the warm-up inside service.
    EXPECT_EQ(s1 - s0, sim::milliseconds(5));
    EXPECT_EQ(dev.powerStats().wakeups, 1u);
    // Still counted as NoWait: the queue was empty.
    EXPECT_EQ(dev.stats().noWaitRequests, 2u);
    // And serviceStart equals arrival (warm-up is service, not wait).
    EXPECT_EQ(done[1].serviceStart, done[1].request.arrival);
}

TEST(EmmcDevice, WarmRequestsSkipWakePenalty)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.power.enabled = true;
    cfg.power.idleThreshold = sim::milliseconds(200);
    cfg.power.wakeLatency = sim::milliseconds(5);
    EmmcDevice dev(s, cfg);
    auto done = runRequests(
        s, dev,
        {makeReq(0, sim::seconds(1), 0, 1, false),
         makeReq(1, sim::seconds(1) + sim::milliseconds(50), 8, 1,
                 false)});
    sim::Time s0 = done[0].finish - done[0].serviceStart;
    sim::Time s1 = done[1].finish - done[1].serviceStart;
    EXPECT_EQ(s0 - s1, sim::milliseconds(5));
    EXPECT_EQ(dev.powerStats().wakeups, 1u);
}

TEST(EmmcDevice, SpaceUtilizationPadding)
{
    // One-unit writes on an 8KB-page device waste half of each page.
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig(8192));
    std::vector<IoRequest> reqs;
    for (int i = 0; i < 8; ++i) {
        reqs.push_back(makeReq(static_cast<std::uint64_t>(i),
                               sim::milliseconds(10) * i,
                               static_cast<std::uint64_t>(i) * 16, 1,
                               true));
    }
    runRequests(s, dev, reqs);
    EXPECT_DOUBLE_EQ(dev.spaceUtilization(), 0.5);
}

TEST(EmmcDevice, SpaceUtilizationPerfectFor4k)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    auto reqs = std::vector<IoRequest>{makeReq(0, 0, 0, 5, true)};
    runRequests(s, dev, reqs);
    EXPECT_DOUBLE_EQ(dev.spaceUtilization(), 1.0);
}

TEST(EmmcDevice, RamBufferAbsorbsWrites)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.buffer.enabled = true;
    cfg.buffer.capacityUnits = 64;
    EmmcDevice dev(s, cfg);
    auto done = runRequests(s, dev, {makeReq(0, 0, 0, 2, true)});
    // Fits entirely in RAM: no flash program happened.
    EXPECT_EQ(dev.array().totalStats().programs, 0u);
    // Service = just the command overhead.
    EXPECT_EQ(done[0].finish - done[0].serviceStart,
              cfg.commandOverhead);
}

TEST(EmmcDevice, RamBufferServesReadHits)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.buffer.enabled = true;
    cfg.buffer.capacityUnits = 64;
    EmmcDevice dev(s, cfg);
    runRequests(s, dev,
                {makeReq(0, 0, 0, 2, true),
                 makeReq(1, sim::milliseconds(1), 0, 2, false)});
    EXPECT_EQ(dev.array().totalStats().reads, 0u);
    EXPECT_DOUBLE_EQ(dev.bufferStats().readHitRate(), 1.0);
}

TEST(EmmcDevice, IdleGcRunsDuringGaps)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.ftl.gc.softFreeBlocks = 32; // every pool below soft threshold
    cfg.idleGcEnabled = true;
    cfg.idleGcDelay = sim::milliseconds(10);
    cfg.idleGcStepGap = sim::milliseconds(1);
    EmmcDevice dev(s, cfg);

    // Dirty the device with overwrites, then leave a long idle gap.
    std::vector<IoRequest> reqs;
    std::uint64_t id = 0;
    for (int round = 0; round < 6; ++round) {
        for (std::uint64_t u = 0; u < 24; u += 4) {
            reqs.push_back(makeReq(id, sim::milliseconds(5) *
                                           static_cast<sim::Time>(id),
                                   u, 4, true));
            ++id;
        }
    }
    runRequests(s, dev, reqs);
    s.runUntil(s.now() + sim::seconds(2));
    EXPECT_GT(dev.ftl().gcStats().idleSteps, 0u);
}

TEST(EmmcDevice, CompletionOrderIsFifo)
{
    sim::Simulator s;
    EmmcConfig cfg = tinyConfig();
    cfg.packing.enabled = false;
    EmmcDevice dev(s, cfg);
    std::vector<IoRequest> reqs;
    for (std::uint64_t i = 0; i < 6; ++i)
        reqs.push_back(makeReq(i, static_cast<sim::Time>(i), i * 8, 1,
                               i % 2 == 0));
    auto done = runRequests(s, dev, reqs);
    ASSERT_EQ(done.size(), 6u);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(done[i].request.id, i);
}

TEST(EmmcDevice, BusyAndQueueDepth)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    EXPECT_FALSE(dev.busy());
    EXPECT_EQ(dev.queueDepth(), 0u);
    s.schedule(0, [&] {
        dev.submit(makeReq(0, 0, 0, 1, false));
        EXPECT_TRUE(dev.busy());
    });
    s.run();
    EXPECT_FALSE(dev.busy());
}

TEST(EmmcDevice, PowerFailDropsInFlightThenQueuedInArrivalOrder)
{
    // Unpacked: write 0 is in flight, writes 1 and 2 wait behind it.
    {
        sim::Simulator s;
        EmmcConfig cfg = tinyConfig();
        cfg.packing.enabled = false;
        EmmcDevice dev(s, cfg);
        std::vector<CompletedRequest> done;
        dev.setCompletionCallback(
            [&done](const CompletedRequest &c) { done.push_back(c); });
        for (std::uint64_t i = 0; i < 3; ++i) {
            const IoRequest r =
                makeReq(i, static_cast<sim::Time>(i), i * 8, 1, true);
            s.schedule(r.arrival, [&dev, r] { dev.submit(r); });
        }
        std::vector<IoRequest> dropped;
        s.schedule(3, [&] {
            EXPECT_TRUE(dev.busy());
            EXPECT_EQ(dev.queueDepth(), 2u);
            dev.powerFail(s.now(), dropped);
        });
        s.run();
        ASSERT_EQ(dropped.size(), 3u);
        for (std::uint64_t i = 0; i < 3; ++i)
            EXPECT_EQ(dropped[i].id, i);
        EXPECT_EQ(dev.spoStats().droppedInFlight, 1u);
        EXPECT_EQ(dev.spoStats().droppedQueued, 2u);
        EXPECT_FALSE(dev.busy());
        EXPECT_EQ(dev.queueDepth(), 0u);
        EXPECT_TRUE(done.empty()) << "a cancelled command completed";
    }
    // Packed: read 0 finishes, writes 1 and 2 ride one command, read 3
    // waits; the cut lands inside the packed command.
    {
        sim::Simulator s;
        EmmcDevice dev(s, tinyConfig());
        std::vector<IoRequest> dropped;
        std::vector<CompletedRequest> done;
        dev.setCompletionCallback([&](const CompletedRequest &c) {
            done.push_back(c);
            s.schedule(s.now() + 1, [&] {
                EXPECT_TRUE(dev.busy());
                EXPECT_EQ(dev.queueDepth(), 1u);
                dev.powerFail(s.now(), dropped);
            });
        });
        for (std::uint64_t i = 0; i < 4; ++i) {
            const IoRequest r = makeReq(i, static_cast<sim::Time>(i),
                                        i * 8, 1, i == 1 || i == 2);
            s.schedule(r.arrival, [&dev, r] { dev.submit(r); });
        }
        s.run();
        ASSERT_EQ(done.size(), 1u);
        EXPECT_EQ(done[0].request.id, 0u);
        ASSERT_EQ(dropped.size(), 3u);
        for (std::uint64_t i = 0; i < 3; ++i)
            EXPECT_EQ(dropped[i].id, i + 1);
        EXPECT_EQ(dev.spoStats().droppedInFlight, 2u);
        EXPECT_EQ(dev.spoStats().droppedQueued, 1u);
        EXPECT_FALSE(dev.busy());
        EXPECT_EQ(dev.queueDepth(), 0u);
    }
}

TEST(EmmcDeviceDeath, MisalignedRequestPanics)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    IoRequest bad = makeReq(0, 0, 0, 1, false);
    bad.sizeBytes = emmcsim::units::Bytes{1000};
    EXPECT_DEATH(dev.submit(bad), "4KB multiple");
    IoRequest bad2 = makeReq(0, 0, 0, 1, false);
    bad2.lbaSector = emmcsim::units::Lba{3};
    EXPECT_DEATH(dev.submit(bad2), "4KB-aligned");
}

TEST(EmmcDevice, QueueDepthStats)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    // Three back-to-back arrivals: depths seen are 0, 1, 2.
    std::vector<IoRequest> reqs = {makeReq(0, 0, 0, 1, false),
                                   makeReq(1, 0, 8, 1, false),
                                   makeReq(2, 0, 16, 1, false)};
    runRequests(s, dev, reqs);
    EXPECT_EQ(dev.stats().queueDepthAtArrival.count(), 3u);
    EXPECT_DOUBLE_EQ(dev.stats().queueDepthAtArrival.mean(), 1.0);
    EXPECT_DOUBLE_EQ(dev.stats().queueDepthAtArrival.max(), 2.0);
}

TEST(EmmcDevice, UtilizationReflectsBusyTime)
{
    sim::Simulator s;
    EmmcDevice dev(s, tinyConfig());
    auto done = runRequests(s, dev, {makeReq(0, 0, 0, 1, false)});
    sim::Time busy = done[0].finish - done[0].serviceStart;
    s.runUntil(2 * busy);
    EXPECT_NEAR(dev.utilization(s.now()), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(dev.utilization(0), 0.0);
}

TEST(EmmcDevice, HslcWritesLandInSlcPool)
{
    // An HSLC-style device: small (1-unit) writes must use the
    // SLC-mode 4KB pool, pairs the 8KB pool.
    sim::Simulator s;
    EmmcConfig cfg;
    cfg.name = "HSLC";
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 1;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.pagesPerBlock = 8;
    cfg.geometry.pools = {flash::PoolConfig{4096, 16, 4},
                          flash::PoolConfig{8192, 16}};
    cfg.timing.pools = {flash::Timing::page4kSlcMode(),
                        flash::Timing::page8k()};
    EmmcDevice dev(s, cfg);

    auto done = runRequests(
        s, dev,
        {makeReq(0, 0, 0, 1, true),                        // 4KB
         makeReq(1, sim::milliseconds(50), 8, 5, true)});  // 20KB
    ASSERT_EQ(done.size(), 2u);
    // 1-unit write + the 20KB tail unit = two SLC-pool programs.
    EXPECT_EQ(dev.array().stats(0).programs, 2u);
    // The 20KB body = two 8KB-pool programs.
    EXPECT_EQ(dev.array().stats(1).programs, 2u);
    // SLC-mode service is faster than the same write on MLC timing.
    sim::Time slc_service = done[0].finish - done[0].serviceStart;
    sim::Time expect = cfg.commandOverhead +
                       cfg.timing.pageCmdOverhead +
                       cfg.timing.transferTime(4096) +
                       flash::Timing::page4kSlcMode().programLatency;
    EXPECT_EQ(slc_service, expect);
}

TEST(EmmcDevice, SlcPoolHasHalfThePages)
{
    sim::Simulator s;
    EmmcConfig cfg = makeHpsSlcConfig();
    EXPECT_EQ(cfg.geometry.poolPagesPerBlock(kHps4kPool),
              cfg.geometry.poolPagesPerBlock(kHps8kPool) / 2);
}

TEST(EmmcDeviceFootprint, MemoryFollowsTouchedData)
{
    // The HPS device's map and pool tables span about 256 MB of
    // capacity-sized state, all on zero pages (DESIGN.md §17).
    // Building one must fault in almost none of it.
    constexpr std::int64_t kMiB = 1 << 20;
    const std::int64_t before = residentBytes();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/statm unavailable";

    sim::Simulator s;
    auto dev = core::makeDevice(s, core::SchemeKind::HPS);
    const std::int64_t built = residentBytes();
    EXPECT_LT(built - before, 16 * kMiB);

    // 256 16KB writes spread evenly over the logical range, then a
    // power cut. Each write touches its own page of the map, about
    // 1 MB in all. Refilling any whole table instead (the map on
    // reset, even the 6 MB valid-bit table in beginRecoveryScan)
    // breaks the bound.
    const std::uint64_t units = dev->ftl().logicalUnits();
    std::vector<IoRequest> reqs;
    for (std::uint64_t i = 0; i < 256; ++i)
        reqs.push_back(makeReq(i,
                               sim::milliseconds(2) *
                                   static_cast<sim::Time>(i),
                               (units - 4) / 256 * i, 4, true));
    ASSERT_EQ(runRequests(s, *dev, reqs).size(), reqs.size());
    const ftl::RecoveryReport rep =
        dev->ftl().powerFailAndRecover(s.now());
    EXPECT_EQ(rep.recoveredUnits, 256u * 4u);
    EXPECT_LT(residentBytes() - built, 4 * kMiB);
}

TEST(EmmcDeviceFootprint, RecoveryFaultsFollowWrittenPages)
{
    // Power-up recovery visits only written pages (DESIGN.md §13.3).
    // After 2,000 sequential 16KB writes, rebuilding the full-size HPS
    // device's map touches a few dozen table pages. Any sweep over a
    // capacity-sized table reads some 7.8 million entries and takes
    // tens of thousands of zero-page faults, even where it adds
    // nothing to the resident set.
    sim::Simulator s;
    auto dev = core::makeDevice(s, core::SchemeKind::HPS);
    std::vector<IoRequest> reqs;
    for (std::uint64_t i = 0; i < 2000; ++i)
        reqs.push_back(makeReq(i,
                               sim::microseconds(500) *
                                   static_cast<sim::Time>(i),
                               4 * i, 4, true));
    ASSERT_EQ(runRequests(s, *dev, reqs).size(), reqs.size());

    const long before = minorFaults();
    const ftl::RecoveryReport rep =
        dev->ftl().powerFailAndRecover(s.now());
    const long faults = minorFaults() - before;
    EXPECT_EQ(rep.recoveredUnits, 2000u * 4u);
    EXPECT_LT(faults, 2000);
}
