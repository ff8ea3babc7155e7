/**
 * @file
 * A5: google-benchmark microbenchmarks of the simulator substrate —
 * event-queue throughput, trace generation, and full replay speed.
 */

#include <benchmark/benchmark.h>

#include "core/experiment.hh"
#include "host/replayer.hh"
#include "sim/simulator.hh"
#include "workload/fixed.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::Simulator s;
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            s.schedule(static_cast<sim::Time>((i * 7919) % 100000),
                       [&sink] { ++sink; });
        s.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 10)->Arg(1 << 14);

void
BM_TraceGeneration(benchmark::State &state)
{
    const workload::AppProfile *p = workload::findProfile("Twitter");
    for (auto _ : state) {
        workload::TraceGenerator gen(*p, 1);
        trace::Trace t = gen.generate(0.5);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(p->requestCount / 2) *
        state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_DeviceConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        auto dev = core::makeDevice(s, core::SchemeKind::HPS);
        benchmark::DoNotOptimize(dev->ftl().logicalUnits());
    }
}
// Tables sit on zero pages: construction no longer scales with capacity.
BENCHMARK(BM_DeviceConstruction)->Unit(benchmark::kMicrosecond);

void
BM_ReplayFixedStream(benchmark::State &state)
{
    workload::FixedStreamSpec spec;
    spec.write = true;
    spec.sizeBytes = sim::kib(16);
    spec.count = 2000;
    spec.gap = sim::microseconds(500);
    trace::Trace t = workload::makeFixedStream(spec);
    for (auto _ : state) {
        sim::Simulator s;
        auto dev = core::makeDevice(s, core::SchemeKind::PS4);
        host::Replayer rep(s, *dev);
        trace::Trace out = rep.replay(t);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(2000 * state.iterations());
    state.SetLabel("requests/iter=2000");
}
BENCHMARK(BM_ReplayFixedStream)->Unit(benchmark::kMillisecond);

void
BM_RunCaseTwitterScaled(benchmark::State &state)
{
    const workload::AppProfile *p = workload::findProfile("Twitter");
    workload::TraceGenerator gen(*p, 1);
    trace::Trace t = gen.generate(0.1);
    for (auto _ : state) {
        core::CaseResult res = core::runCase(t, core::SchemeKind::HPS);
        benchmark::DoNotOptimize(res.meanResponseMs);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(t.size()) *
                            state.iterations());
}
BENCHMARK(BM_RunCaseTwitterScaled)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
