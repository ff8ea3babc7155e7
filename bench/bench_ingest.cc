/**
 * @file
 * Ingestion-pipeline benchmarks (DESIGN.md §15): text-format parse
 * rate vs emmctrace-bin decode rate (records/s through a streaming
 * TraceSource), binary encode throughput, and a foreign-format
 * importer pass. The text/binary pair quantifies what the columnar
 * format buys on multi-GB replays.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/binfmt.hh"
#include "trace/ingest/ingest.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

using namespace emmcsim;

namespace {

constexpr std::size_t kRecords = 200'000;

/** Deterministic mixed trace (no wall clock, no RNG). */
const trace::Trace &
benchTrace()
{
    static const trace::Trace t = [] {
        trace::Trace out("bench");
        out.reserve(kRecords);
        for (std::size_t i = 0; i < kRecords; ++i) {
            trace::TraceRecord r;
            r.arrival = static_cast<sim::Time>(i) * 12'345;
            r.lbaSector = units::Lba{
                ((i * 7919) % 100'000) *
                static_cast<std::uint64_t>(sim::kSectorsPerUnit)};
            r.sizeBytes = units::Bytes{(1 + i % 8) * sim::kUnitBytes};
            r.op = i % 3 == 0 ? trace::OpType::Read
                              : trace::OpType::Write;
            out.push(r);
        }
        return out;
    }();
    return t;
}

/** Lazily materialized on-disk copies of the bench trace. */
const std::string &
textPath()
{
    static const std::string path = [] {
        std::string p = "bench_ingest.trace";
        benchTrace().saveFile(p);
        return p;
    }();
    return path;
}

const std::string &
binPath()
{
    static const std::string path = [] {
        std::string p = "bench_ingest.bin";
        trace::saveBinTraceFile(benchTrace(), p);
        return p;
    }();
    return path;
}

/** Drain a source; returns records seen (must equal kRecords). */
std::uint64_t
drainSource(trace::TraceSource &src)
{
    trace::TraceRecord buf[4096];
    std::uint64_t n = 0;
    std::uint64_t sink = 0;
    while (true) {
        const std::size_t got = src.next(buf, 4096);
        if (got == 0)
            break;
        n += got;
        sink += buf[got - 1].sizeBytes.value();
    }
    benchmark::DoNotOptimize(sink);
    return n;
}

void
BM_TextStreamParse(benchmark::State &state)
{
    const std::string &path = textPath();
    for (auto _ : state) {
        trace::TextTraceSource src(path);
        if (drainSource(src) != kRecords || src.failed())
            state.SkipWithError("text stream parse failed");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kRecords) *
                            state.iterations());
}
BENCHMARK(BM_TextStreamParse)->Unit(benchmark::kMillisecond);

void
BM_BinStreamDecode(benchmark::State &state)
{
    const std::string &path = binPath();
    for (auto _ : state) {
        trace::BinTraceSource src(path);
        if (drainSource(src) != kRecords || src.failed())
            state.SkipWithError("binary stream decode failed");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kRecords) *
                            state.iterations());
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    state.counters["bytes_per_record"] =
        static_cast<double>(is.tellg()) / kRecords;
}
BENCHMARK(BM_BinStreamDecode)->Unit(benchmark::kMillisecond);

void
BM_BinEncode(benchmark::State &state)
{
    const trace::Trace &t = benchTrace();
    const std::string path = "bench_ingest_enc.bin";
    for (auto _ : state) {
        trace::saveBinTraceFile(t, path);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kRecords) *
                            state.iterations());
    std::remove(path.c_str());
}
BENCHMARK(BM_BinEncode)->Unit(benchmark::kMillisecond);

void
BM_IngestAlibabaCsv(benchmark::State &state)
{
    // Synthesize a CSV once; the benchmark measures the full ingest
    // pipeline: parse, filter, align, sort, rebase, build.
    const std::string path = "bench_ingest.csv";
    {
        std::ofstream os(path, std::ios::trunc);
        for (std::size_t i = 0; i < kRecords; ++i) {
            os << (i % 7) << (i % 3 == 0 ? ",R," : ",W,")
               << ((i * 7919) % 100'000) * sim::kUnitBytes << ','
               << (1 + i % 8) * sim::kUnitBytes << ',' << i * 100
               << '\n';
        }
    }
    for (auto _ : state) {
        trace::Trace out;
        trace::ingest::IngestStats stats;
        std::string error;
        if (!trace::ingest::ingestFile(trace::ingest::Format::Alibaba,
                                       path, {}, out, stats, error) ||
            out.size() != kRecords)
            state.SkipWithError("alibaba ingest failed");
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kRecords) *
                            state.iterations());
    std::remove(path.c_str());
}
BENCHMARK(BM_IngestAlibabaCsv)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
