/**
 * @file
 * Proof that a case snapshot is held once: global operator new is
 * replaced with one that records the size of every large block, and
 * runCase() with snapshotAt must allocate only one block as large as
 * the image's inner replayer image, and resumeCase() none even half
 * that size. The case
 * wrapper is written around the replayer's image in the same buffer,
 * and resume reads the inner image in place (DESIGN.md §13.5). Own
 * binary because the replacement operators apply to everything
 * linked with them.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/binio.hh"
#include "core/experiment.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace {

/** Blocks at least this large are recorded (the image is MBs). */
constexpr std::size_t kLargeBlock = std::size_t{1} << 20;

std::array<std::atomic<std::size_t>, 256> g_large{};
std::atomic<std::size_t> g_largeCount{0};

void *
recordedAlloc(std::size_t n)
{
    if (n >= kLargeBlock) {
        const std::size_t i =
            g_largeCount.fetch_add(1, std::memory_order_relaxed);
        if (i < g_large.size())
            g_large[i].store(n, std::memory_order_relaxed);
    }
    return std::malloc(n);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = recordedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    if (void *p = recordedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace emmcsim;
using namespace emmcsim::core;

/** Blocks of at least @p bytes recorded since the last reset. */
std::size_t
blocksAtLeast(std::size_t bytes)
{
    const std::size_t n = g_largeCount.load(std::memory_order_relaxed);
    EXPECT_LE(n, g_large.size()) << "large-block log overflowed";
    std::size_t count = 0;
    for (std::size_t i = 0; i < n && i < g_large.size(); ++i)
        count += g_large[i].load(std::memory_order_relaxed) >= bytes;
    return count;
}

void
resetLog()
{
    g_largeCount.store(0, std::memory_order_relaxed);
}

/** Length of the inner replayer image stored in a case image. */
std::size_t
innerImageBytes(const std::string &image)
{
    BinReader r(image);
    r.str();
    r.u32();
    ftl::FtlStats before;
    r.pod(before);
    const std::uint64_t n = r.u64();
    EXPECT_TRUE(r.ok());
    return static_cast<std::size_t>(n);
}

class SnapshotAllocation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const workload::AppProfile *p =
            workload::findProfile("Messaging");
        ASSERT_NE(p, nullptr);
        trace_ = workload::TraceGenerator(*p, 1).generate(0.05);
        opts_.capacityScale = 1.0 / 64.0;
    }

    trace::Trace trace_;
    ExperimentOptions opts_;
};

TEST_F(SnapshotAllocation, RunCaseWritesTheImageOnce)
{
    ExperimentOptions snap_opts = opts_;
    snap_opts.snapshotAt = trace_.duration() / 3;
    resetLog();
    CaseResult captured = runCase(trace_, SchemeKind::HPS, snap_opts);
    const std::size_t inner = innerImageBytes(captured.snapshotImage);
    ASSERT_GE(inner, kLargeBlock) << "image too small to tell apart";

    // One growing buffer holds wrapper and inner image; its final
    // block is the only one as large as the inner image.
    EXPECT_EQ(blocksAtLeast(inner), 1u)
        << "the image was copied into a second image-sized block";
}

TEST_F(SnapshotAllocation, ResumeCaseReadsTheImageInPlace)
{
    ExperimentOptions snap_opts = opts_;
    snap_opts.snapshotAt = trace_.duration() / 3;
    const CaseResult captured =
        runCase(trace_, SchemeKind::HPS, snap_opts);
    const std::size_t inner = innerImageBytes(captured.snapshotImage);
    ASSERT_GE(inner, kLargeBlock) << "image too small to tell apart";

    resetLog();
    const CaseResult resumed = resumeCase(
        trace_, SchemeKind::HPS, captured.snapshotImage, opts_);
    EXPECT_EQ(blocksAtLeast(inner / 2), 0u)
        << "resume copied the image";
    EXPECT_EQ(resumed.requests, captured.requests);
}

} // namespace
