/**
 * @file
 * Power-up recovery and snapshot microbenchmarks (DESIGN.md §13).
 *
 * Reports, per dirty-state size:
 *   - wall time of Ftl::powerFailAndRecover (the OOB scan dominates),
 *     on a 49K-unit device and on the full-size HPS device, where a
 *     pass over capacity-sized state would dominate instead
 *   - sim_recovery_ms: the *simulated* recovery cost the model
 *     charges (checkpoint read + journal replay + open-block scan +
 *     re-erase + checkpoint write)
 *   - scanned_pages / journal_pages_read for the cost breakdown
 * plus the save/load throughput and image size of a full device
 * snapshot, and one case-level snapshot round trip (runCase with
 * snapshotAt, then resumeCase), which also sees the copies a case
 * image costs.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <memory>

#include "core/binio.hh"
#include "core/experiment.hh"
#include "core/scheme.hh"
#include "emmc/device.hh"
#include "ftl/ftl.hh"
#include "host/replayer.hh"
#include "sim/simulator.hh"
#include "workload/fixed.hh"

using namespace emmcsim;

namespace {

/** Geometry big enough for the largest dirty-unit argument. */
flash::Geometry
benchGeom()
{
    flash::Geometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 4;
    g.pagesPerBlock = 64;
    g.pools = {{4096, 256}}; // 65536 pages -> 49152 logical units
    return g;
}

flash::Timing
benchTiming()
{
    flash::Timing t;
    t.pools = {flash::Timing::page4k()};
    return t;
}

void
BM_FtlPowerFailRecover(benchmark::State &state)
{
    const auto dirty = static_cast<std::int64_t>(state.range(0));
    const flash::Geometry geom = benchGeom();
    const flash::Timing timing = benchTiming();
    ftl::FtlConfig cfg;
    cfg.opRatio = 0.25;

    ftl::RecoveryReport rep;
    for (auto _ : state) {
        state.PauseTiming();
        flash::FlashArray array(geom, timing, true);
        ftl::Ftl ftl(array, cfg);
        sim::Time t = 0;
        for (std::int64_t l = 0; l < dirty; ++l)
            t = ftl.writeGroup(0, flash::Lpn{l}, 1, t).done;
        state.ResumeTiming();

        rep = ftl.powerFailAndRecover(t + 1);
        benchmark::DoNotOptimize(rep.recoveredUnits);
    }

    state.SetItemsProcessed(dirty * state.iterations());
    state.counters["sim_recovery_ms"] =
        sim::toMilliseconds(rep.totalTime);
    state.counters["scanned_pages"] =
        static_cast<double>(rep.scannedPages);
    state.counters["journal_pages_read"] =
        static_cast<double>(rep.journalPagesRead);
    state.counters["checkpoint_pages_read"] =
        static_cast<double>(rep.checkpointPagesRead);
}
BENCHMARK(BM_FtlPowerFailRecover)
    ->Arg(1 << 10)
    ->Arg(1 << 13)
    ->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

/** A sequential stream of @p count 16KB writes, 500 us apart. */
trace::Trace
fixedStream(std::uint64_t count = 2000)
{
    workload::FixedStreamSpec spec;
    spec.write = true;
    spec.sizeBytes = sim::kib(16);
    spec.count = count;
    spec.gap = sim::microseconds(500);
    return workload::makeFixedStream(spec);
}

/**
 * Recovery on the full-size HPS device (7.8M logical units) after
 * range(0) units of sequential 16KB writes. minor_faults is the
 * recovery's own page-fault count: it stays proportional to the
 * written pages only if nothing sweeps a capacity-sized table.
 */
void
BM_HpsPowerFailRecover(benchmark::State &state)
{
    const trace::Trace t =
        fixedStream(static_cast<std::uint64_t>(state.range(0)) / 4);
    ftl::RecoveryReport rep;
    long faults = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator s;
        auto dev = core::makeDevice(s, core::SchemeKind::HPS);
        host::Replayer(s, *dev).replay(t);
        rusage before{};
        getrusage(RUSAGE_SELF, &before);
        state.ResumeTiming();

        rep = dev->ftl().powerFailAndRecover(s.now());
        benchmark::DoNotOptimize(rep.recoveredUnits);

        state.PauseTiming();
        rusage after{};
        getrusage(RUSAGE_SELF, &after);
        faults = after.ru_minflt - before.ru_minflt;
        dev.reset();
        state.ResumeTiming();
    }

    state.SetItemsProcessed(state.range(0) * state.iterations());
    state.counters["recovered_units"] =
        static_cast<double>(rep.recoveredUnits);
    state.counters["scanned_pages"] =
        static_cast<double>(rep.scannedPages);
    state.counters["minor_faults"] = static_cast<double>(faults);
}
BENCHMARK(BM_HpsPowerFailRecover)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/** One replayed device at a quiescent point, ready to snapshot. */
std::unique_ptr<emmc::EmmcDevice>
replayedDevice(sim::Simulator &s)
{
    emmc::EmmcConfig cfg;
    cfg.geometry = benchGeom();
    cfg.timing = benchTiming();
    cfg.ftl.opRatio = 0.25;
    auto dev = std::make_unique<emmc::EmmcDevice>(s, cfg);
    host::Replayer rep(s, *dev);
    rep.replay(fixedStream());
    return dev;
}

void
BM_DeviceSnapshotSave(benchmark::State &state)
{
    sim::Simulator s;
    auto dev = replayedDevice(s);
    std::size_t bytes = 0;
    for (auto _ : state) {
        core::BinWriter w;
        dev->save(w);
        bytes = w.data().size();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["image_bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                            state.iterations());
}
BENCHMARK(BM_DeviceSnapshotSave)->Unit(benchmark::kMillisecond);

void
BM_DeviceSnapshotLoad(benchmark::State &state)
{
    std::string image;
    sim::Time capture = 0;
    {
        sim::Simulator s;
        auto dev = replayedDevice(s);
        core::BinWriter w;
        dev->save(w);
        image = w.take();
        capture = s.now();
    }
    emmc::EmmcConfig cfg;
    cfg.geometry = benchGeom();
    cfg.timing = benchTiming();
    cfg.ftl.opRatio = 0.25;
    for (auto _ : state) {
        sim::Simulator s;
        s.restoreClock(capture);
        emmc::EmmcDevice dev(s, cfg);
        core::BinReader r(image);
        dev.load(r);
        benchmark::DoNotOptimize(dev.ftl().logicalUnits());
    }
    state.counters["image_bytes"] = static_cast<double>(image.size());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(image.size()) * state.iterations());
}
BENCHMARK(BM_DeviceSnapshotLoad)->Unit(benchmark::kMillisecond);

/**
 * runCase with snapshotAt, then resumeCase, on an HPS device of
 * 1/range(0) the full capacity. At 1/4 the ~48 MB image is past
 * glibc's 32 MB cap on its dynamic mmap threshold, so every image
 * block is a fresh mapping, as with full-size images; at 1/64 the
 * ~5 MB image is served from the heap and the allocator's trim
 * heuristic decides how many pages fault in again per iteration.
 */
void
BM_CaseSnapshotRoundTrip(benchmark::State &state)
{
    const trace::Trace t = fixedStream();
    core::ExperimentOptions opts;
    opts.capacityScale = 1.0 / static_cast<double>(state.range(0));
    core::ExperimentOptions snap_opts = opts;
    snap_opts.snapshotAt = t.duration() / 2;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const core::CaseResult whole =
            core::runCase(t, core::SchemeKind::HPS, snap_opts);
        const core::CaseResult resumed = core::resumeCase(
            t, core::SchemeKind::HPS, whole.snapshotImage, opts);
        bytes = whole.snapshotImage.size();
        benchmark::DoNotOptimize(resumed.requests);
    }
    state.counters["image_bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                            state.iterations());
}
BENCHMARK(BM_CaseSnapshotRoundTrip)
    ->Arg(64)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
