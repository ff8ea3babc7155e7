/**
 * @file
 * Unit tests for the eMMC packed-write policy.
 */

#include <deque>

#include <gtest/gtest.h>

#include "emmc/packing.hh"

using namespace emmcsim;
using namespace emmcsim::emmc;

namespace {

IoRequest
req(bool write, std::uint64_t size_bytes = 4096)
{
    IoRequest r;
    r.write = write;
    r.sizeBytes = emmcsim::units::Bytes{size_bytes};
    return r;
}

} // namespace

TEST(WritePacker, SingleRequestUnpacked)
{
    WritePacker p(PackingConfig{});
    std::deque<IoRequest> q = {req(true)};
    EXPECT_EQ(p.packCount(q), 1u);
    EXPECT_EQ(p.stats().packedCommands, 0u);
}

TEST(WritePacker, ReadsNeverPack)
{
    WritePacker p(PackingConfig{});
    std::deque<IoRequest> q = {req(false), req(false), req(false)};
    EXPECT_EQ(p.packCount(q), 1u);
}

TEST(WritePacker, ConsecutiveWritesPack)
{
    WritePacker p(PackingConfig{});
    std::deque<IoRequest> q = {req(true), req(true), req(true)};
    EXPECT_EQ(p.packCount(q), 3u);
    EXPECT_EQ(p.stats().packedCommands, 1u);
    EXPECT_EQ(p.stats().packedRequests, 3u);
}

TEST(WritePacker, ReadStopsThePack)
{
    WritePacker p(PackingConfig{});
    std::deque<IoRequest> q = {req(true), req(true), req(false),
                               req(true)};
    EXPECT_EQ(p.packCount(q), 2u);
}

TEST(WritePacker, RequestCapRespected)
{
    PackingConfig cfg;
    cfg.maxRequests = 4;
    WritePacker p(cfg);
    std::deque<IoRequest> q(10, req(true));
    EXPECT_EQ(p.packCount(q), 4u);
}

TEST(WritePacker, ByteCapRespected)
{
    PackingConfig cfg;
    cfg.maxBytes = emmcsim::units::Bytes{10 * 4096};
    WritePacker p(cfg);
    std::deque<IoRequest> q(10, req(true, 4 * 4096));
    // 2 requests = 8 units; a third would exceed 10 units.
    EXPECT_EQ(p.packCount(q), 2u);
}

TEST(WritePacker, OversizedFirstWriteStillDispatches)
{
    PackingConfig cfg;
    cfg.maxBytes = emmcsim::units::Bytes{4096};
    WritePacker p(cfg);
    std::deque<IoRequest> q = {req(true, 1 << 20), req(true)};
    EXPECT_EQ(p.packCount(q), 1u);
}

TEST(WritePacker, DisabledNeverPacks)
{
    PackingConfig cfg;
    cfg.enabled = false;
    WritePacker p(cfg);
    std::deque<IoRequest> q(5, req(true));
    EXPECT_EQ(p.packCount(q), 1u);
    EXPECT_EQ(p.stats().packedCommands, 0u);
}

TEST(WritePacker, StatsAccumulate)
{
    WritePacker p(PackingConfig{});
    std::deque<IoRequest> q(3, req(true));
    p.packCount(q);
    p.packCount(q);
    EXPECT_EQ(p.stats().packedCommands, 2u);
    EXPECT_EQ(p.stats().packedRequests, 6u);
}
