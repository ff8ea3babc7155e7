/**
 * @file
 * Proof that streaming replay holds bounded memory: global operator
 * new/delete are replaced with implementations that track *live* heap
 * bytes and count allocations. A long replay must plateau once the
 * chunk buffers, retry ring, and event queue have warmed up — resident
 * heap must not scale with trace length (that is the whole point of
 * TraceSource: a multi-GB capture replays without materializing a
 * record vector) — and the request path (write split, FTL reads and
 * writes) must not allocate per request once warm, nor must the
 * locality statistic computed over a replayed trace. Own binary for the
 * same reason as sim_alloc_test: the replacement operators apply to
 * everything linked with them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "analysis/locality.hh"
#include "emmc/device.hh"
#include "host/replayer.hh"
#include "trace/source.hh"

namespace {

std::atomic<std::uint64_t> g_liveBytes{0};
std::atomic<std::uint64_t> g_newCalls{0};

// Each block is over-allocated by one max-aligned header holding its
// size, so the unsized delete forms can maintain the live counter.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void *
countedAlloc(std::size_t n)
{
    void *raw = std::malloc(n + kHeader);
    if (raw == nullptr)
        return nullptr;
    *static_cast<std::size_t *>(raw) = n;
    g_liveBytes.fetch_add(n, std::memory_order_relaxed);
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    return static_cast<char *>(raw) + kHeader;
}

void
countedFree(void *p)
{
    if (p == nullptr)
        return;
    void *raw = static_cast<char *>(p) - kHeader;
    g_liveBytes.fetch_sub(*static_cast<std::size_t *>(raw),
                          std::memory_order_relaxed);
    std::free(raw);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace {

using namespace emmcsim;

/**
 * Procedural source: one warm-up chunk of writes over a small region,
 * then reads of the same region forever. Snapshots the live-byte
 * counter at every next() call so the test can separate warm-up
 * growth from steady-state drift.
 */
class CountingSource : public trace::TraceSource
{
  public:
    explicit CountingSource(std::size_t total) : total_(total)
    {
        liveMarks_.reserve(total / 1024 + 16);
    }

    const std::string &name() const override { return name_; }

    std::size_t
    next(trace::TraceRecord *out, std::size_t max) override
    {
        liveMarks_.push_back(
            g_liveBytes.load(std::memory_order_relaxed));
        std::size_t n = 0;
        while (n < max && produced_ < total_) {
            const std::size_t i = produced_++;
            trace::TraceRecord r;
            // Keep the device drained: arrivals slower than service
            // keep queue depth (and thus queue storage) bounded.
            r.arrival = static_cast<sim::Time>(i) * 1'000'000; // 1ms
            r.lbaSector = units::Lba{
                (i % kRegionUnits) *
                static_cast<std::uint64_t>(sim::kSectorsPerUnit)};
            r.sizeBytes = units::Bytes{sim::kUnitBytes};
            // First 4096 records write the region; the rest read it.
            r.op = i < 4096 ? trace::OpType::Write : trace::OpType::Read;
            out[n++] = r;
        }
        return n;
    }

    void reset() override { produced_ = 0; }

    const trace::TraceLoadError &error() const override { return err_; }

    /** Live heap bytes observed at each next() call. */
    const std::vector<std::uint64_t> &liveMarks() const
    {
        return liveMarks_;
    }

  private:
    static constexpr std::size_t kRegionUnits = 1024;

    std::string name_ = "counting";
    std::size_t total_;
    std::size_t produced_ = 0;
    std::vector<std::uint64_t> liveMarks_;
    trace::TraceLoadError err_;
};

/**
 * Procedural mixed traffic: writes of 1..7 units and reads of 1..8
 * units over a small region, so writes split into 8KB pairs plus 4KB
 * tails and reads span several pages, mapped and not. Records the
 * allocation count at every next() call.
 */
class MixedSource : public trace::TraceSource
{
  public:
    explicit MixedSource(std::size_t total) : total_(total)
    {
        newMarks_.reserve(total / 1024 + 16);
    }

    const std::string &name() const override { return name_; }

    std::size_t
    next(trace::TraceRecord *out, std::size_t max) override
    {
        newMarks_.push_back(g_newCalls.load(std::memory_order_relaxed));
        std::size_t n = 0;
        while (n < max && produced_ < total_) {
            const std::size_t i = produced_++;
            const std::uint64_t h = (i * 2654435761u) >> 7;
            trace::TraceRecord r;
            r.arrival = static_cast<sim::Time>(i) * 1'000'000; // 1ms
            r.op = i % 3 == 0 ? trace::OpType::Write : trace::OpType::Read;
            const std::uint64_t units =
                r.op == trace::OpType::Write ? 1 + h % 7 : 1 + h % 8;
            r.lbaSector = units::Lba{
                (h % (kRegionUnits - 8)) *
                static_cast<std::uint64_t>(sim::kSectorsPerUnit)};
            r.sizeBytes = units::Bytes{units * sim::kUnitBytes};
            out[n++] = r;
        }
        return n;
    }

    void reset() override { produced_ = 0; }

    const trace::TraceLoadError &error() const override { return err_; }

    /** operator new calls observed at each next() call. */
    const std::vector<std::uint64_t> &newMarks() const
    {
        return newMarks_;
    }

  private:
    static constexpr std::uint64_t kRegionUnits = 512;

    std::string name_ = "mixed";
    std::size_t total_;
    std::size_t produced_ = 0;
    std::vector<std::uint64_t> newMarks_;
    trace::TraceLoadError err_;
};

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

TEST(StreamReplayAllocation, LiveHeapDoesNotScaleWithTraceLength)
{
    // 24 chunks of 4096 records. Materializing this trace would hold
    // >3.5MB of records; a per-record accumulator (the bug this test
    // guards against) would grow the heap by at least that much over
    // the measurement window.
    constexpr std::size_t kRecords = 24 * 4096;

    sim::Simulator s;
    emmc::EmmcDevice dev(s, tinyConfig());
    host::Replayer rep(s, dev);

    CountingSource src(kRecords);
    const host::StreamReplayResult res = rep.replayStream(src);
    EXPECT_EQ(res.requests, kRecords);

    const std::vector<std::uint64_t> &marks = src.liveMarks();
    // next() is called once per chunk plus a final empty pull.
    ASSERT_GE(marks.size(), 10u);

    // Chunks 0..5 may grow the heap: stream buffers, the retry ring,
    // the event queue, and device scratch all reach steady size. From
    // chunk 6 on, live bytes must plateau — 64KB of slack tolerates
    // container doubling, nowhere near the >700KB a per-record term
    // would add across the remaining ~70k records.
    std::uint64_t peak = 0;
    for (std::size_t i = 7; i < marks.size(); ++i)
        peak = std::max(peak, marks[i]);
    const std::size_t steadyRecords = (marks.size() - 1 - 6) * 4096;
    EXPECT_GT(steadyRecords, 60'000u);
    EXPECT_LT(peak, marks[6] + 64 * 1024)
        << "live heap grew by " << (peak - marks[6]) << " bytes over "
        << steadyRecords << " steady-state records";
}

} // namespace

namespace {

TEST(StreamReplayAllocation, HpsRequestPathDoesNotAllocatePerRequest)
{
    // A 4KB + 8KB pool device: every write runs the page split and
    // every read groups units by page or times unmapped runs.
    emmc::EmmcConfig cfg = tinyConfig();
    cfg.geometry.pools = {flash::PoolConfig{4096, 32},
                          flash::PoolConfig{8192, 32}};
    cfg.timing.pools = {flash::Timing::page4k(), flash::Timing::page8k()};
    constexpr std::size_t kRecords = 16 * 4096;

    sim::Simulator s;
    emmc::EmmcDevice dev(s, cfg);
    host::Replayer rep(s, dev);

    MixedSource src(kRecords);
    const host::StreamReplayResult res = rep.replayStream(src);
    EXPECT_EQ(res.requests, kRecords);
    EXPECT_GT(dev.ftl().stats().hostProgramOps, 0u);

    // Chunks 0..3 warm up scratch, queues and GC state; the rest is
    // the steady state. next() is called once per chunk plus a final
    // empty pull, so marks[k] precedes chunk k.
    const std::vector<std::uint64_t> &marks = src.newMarks();
    ASSERT_EQ(marks.size(), kRecords / 4096 + 1);
    constexpr std::size_t kWarm = 4;
    const std::uint64_t steadyRecords = (marks.size() - 1 - kWarm) * 4096;
    const std::uint64_t allocs = marks.back() - marks[kWarm];
    EXPECT_LT(static_cast<double>(allocs) /
                  static_cast<double>(steadyRecords),
              0.01)
        << allocs << " allocations over " << steadyRecords
        << " steady-state requests";
}

} // namespace

namespace {

TEST(StreamReplayAllocation, TextSourceDoesNotAllocatePerRecord)
{
    // 16 chunks of 4096 lines, some with replay timestamps: every
    // line is split and parsed in place, so once the line buffer and
    // the file stream are warm no record allocates.
    constexpr std::size_t kChunk = 4096;
    constexpr std::size_t kRecords = 16 * kChunk;
    const std::string path =
        testing::TempDir() + "/stream_alloc_text_source.trace";
    {
        std::ofstream os(path, std::ios::binary);
        os << "# emmctrace v1\n# name: text-alloc\n# records: "
           << kRecords << "\n";
        for (std::size_t i = 0; i < kRecords; ++i) {
            const std::size_t t = i * 1000;
            os << t << ' ' << (i % 4096) * 8 << ' ' << 4096 * (1 + i % 8)
               << (i % 3 == 0 ? " W" : " R");
            if (i % 2 == 0)
                os << ' ' << t + 10 << ' ' << t + 500;
            os << '\n';
        }
    }

    trace::TextTraceSource src(path);
    static trace::TraceRecord buf[kChunk]; // off the counted heap
    ASSERT_EQ(src.next(buf, kChunk), kChunk); // warm-up chunk
    const std::uint64_t before = g_newCalls.load(std::memory_order_relaxed);
    std::size_t records = 0;
    while (std::size_t n = src.next(buf, kChunk))
        records += n;
    const std::uint64_t allocs =
        g_newCalls.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(src.error().ok()) << src.error().message();
    EXPECT_EQ(records, kRecords - kChunk);
    EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(records),
              0.01)
        << allocs << " allocations over " << records << " records";
}

TEST(StreamReplayAllocation, LocalityAllocatesOneTable)
{
    // 65,536 requests over 16,384 distinct start LBAs: the set of
    // starts seen is one table allocated up front, not a node per
    // address.
    constexpr std::uint64_t kRecords = 1u << 16;
    constexpr std::uint64_t kStarts = 1u << 14;
    trace::Trace t("locality-alloc");
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        trace::TraceRecord r;
        r.arrival = static_cast<sim::Time>(i) * 1000;
        r.lbaSector = units::Lba{(i * 7919 % kStarts) * 24};
        r.sizeBytes = units::Bytes{4096};
        r.op = trace::OpType::Write;
        t.push(r);
    }
    const std::uint64_t before = g_newCalls.load(std::memory_order_relaxed);
    const analysis::LocalityResult loc = analysis::computeLocality(t);
    const std::uint64_t allocs =
        g_newCalls.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(loc.addressHits, kRecords - kStarts);
    EXPECT_LE(allocs, 2u) << allocs << " allocations over " << kRecords
                          << " records";
}

} // namespace
