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
    std::size_t high_water = 0;
    for (auto _ : state) {
        sim::Simulator s;
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            s.schedule(static_cast<sim::Time>((i * 7919) % 100000),
                       [&sink] { ++sink; });
        s.run();
        benchmark::DoNotOptimize(sink);
        high_water = s.events().arenaHighWater();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
    state.counters["arena_high_water"] =
        static_cast<double>(high_water);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 10)->Arg(1 << 14);

void
BM_EventArenaSteadyState(benchmark::State &state)
{
    // Slot-recycling steady state: one long-lived queue, repeatedly
    // filled and drained. The arena must stay at one batch of slots
    // (peak live), and the schedule/pop cycle must not allocate.
    const auto n = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    sim::Time base = 0;

    auto fill_drain = [&] {
        for (std::uint64_t i = 0; i < n; ++i)
            q.schedule(base + static_cast<sim::Time>(i),
                       [&sink] { ++sink; });
        sim::Time t;
        sim::EventAction a;
        while (q.pop(t, a))
            a();
        base += static_cast<sim::Time>(n);
    };

    fill_drain(); // warm the arena / heap storage
    for (auto _ : state)
        fill_drain();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
    state.counters["arena_slots"] =
        static_cast<double>(q.arenaSlots());
    state.counters["arena_high_water"] =
        static_cast<double>(q.arenaHighWater());
    state.counters["lifetime_events"] =
        static_cast<double>(q.scheduledCount());
}
BENCHMARK(BM_EventArenaSteadyState)->Arg(1 << 10)->Arg(1 << 14);

void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    // Timer/retry-heavy workloads cancel most of what they schedule;
    // this exercises lazy delete plus wholesale heap compaction.
    const auto n = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue q;
    std::vector<sim::EventId> ids(n);
    sim::Time base = 0;

    for (auto _ : state) {
        for (std::uint64_t i = 0; i < n; ++i)
            ids[i] = q.schedule(base + static_cast<sim::Time>(i), [] {});
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i % 4 != 0)
                q.cancel(ids[i]);
        }
        sim::Time t;
        sim::EventAction a;
        while (q.pop(t, a))
            a();
        base += static_cast<sim::Time>(n);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
    state.counters["heap_compactions"] =
        static_cast<double>(q.heapCompactions());
    state.counters["arena_slots"] =
        static_cast<double>(q.arenaSlots());
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(1 << 12);

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
