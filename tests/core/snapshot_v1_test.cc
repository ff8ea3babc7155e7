/**
 * @file
 * Snapshot layout v1 compatibility. The device tables live on zero
 * pages in their own encodings (DESIGN.md §17), but images keep the
 * dense v1 layout: kNoLpn = -1 for unwritten pool slots and
 * planeLinear = -1 for unmapped map entries. The committed images in
 * tests/data were written by a build that stored those dense tables
 * directly; this build must read them and write them back byte for
 * byte.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/binio.hh"
#include "emmc/device.hh"
#include "ftl/journal.hh"
#include "ftl/mapping.hh"
#include "sim/simulator.hh"

using namespace emmcsim;
using namespace emmcsim::emmc;

namespace {

/**
 * A two-pool HPS device small enough that its image is a few KB:
 * 2 planes x (12 4KB-page blocks + 12 8KB-page blocks) x 4 pages.
 */
std::unique_ptr<EmmcDevice>
tinyHpsDevice(sim::Simulator &s)
{
    EmmcConfig cfg;
    cfg.name = "HPS";
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 1;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.pagesPerBlock = 4;
    cfg.geometry.pools = {flash::PoolConfig{4096, 12},
                          flash::PoolConfig{8192, 12}};
    cfg.timing.pools = {flash::Timing::page4k(), flash::Timing::page8k()};
    cfg.ftl.opRatio = 0.25;
    return std::make_unique<EmmcDevice>(s, cfg);
}

IoRequest
writeReq(std::uint64_t id, sim::Time arrival, std::int64_t unit,
         std::uint32_t units)
{
    IoRequest r;
    r.id = id;
    r.arrival = arrival;
    r.lbaSector =
        emmcsim::units::unitToLba(emmcsim::units::UnitAddr{unit});
    r.sizeBytes = emmcsim::units::unitsToBytes(units);
    r.write = true;
    return r;
}

/**
 * Drive the tiny device through every state the pool and map tables
 * encode: mixed 4KB/8KB programs, overwrites and blocking GC (erased
 * blocks), never-written units (unmapped entries), and a power cut
 * mid-program (a torn page inside a written block, then a sealed open
 * block).
 */
void
ageDevice(sim::Simulator &s, EmmcDevice &dev)
{
    dev.setCompletionCallback([](const CompletedRequest &) {});
    const auto units =
        static_cast<std::int64_t>(dev.ftl().logicalUnits());
    std::uint64_t id = 0;
    sim::Time t = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::int64_t u = 0; u + 3 <= units; u += 5) {
            const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                            (u / 5 + round) % 3);
            const IoRequest r = writeReq(++id, t, u, n);
            s.schedule(t, [&dev, r] { dev.submit(r); });
            t += sim::milliseconds(2);
        }
    }
    s.run();

    // Cut power while one more program is in flight.
    const IoRequest last = writeReq(++id, s.now() + 1000, 40, 2);
    s.schedule(last.arrival, [&dev, last] { dev.submit(last); });
    std::vector<IoRequest> dropped;
    s.schedule(last.arrival + sim::microseconds(300), [&s, &dev, &dropped] {
        dev.powerFail(s.now(), dropped);
    });
    s.run();
    dev.powerOn(s.now() + sim::milliseconds(100));
    s.run();
}

std::string
saveImage(const EmmcDevice &dev)
{
    core::BinWriter w;
    dev.save(w);
    return w.take();
}

std::string
readData(const std::string &name)
{
    std::ifstream in(std::string(EMMCSIM_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing test data " << name;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

TEST(SnapshotV1, FreshDeviceImageMatchesDenseLayout)
{
    sim::Simulator s;
    auto dev = tinyHpsDevice(s);
    EXPECT_EQ(saveImage(*dev), readData("snapshot_v1_fresh.bin"));
}

TEST(SnapshotV1, AgedDeviceImageMatchesDenseLayout)
{
    sim::Simulator s;
    auto dev = tinyHpsDevice(s);
    ageDevice(s, *dev);
    ASSERT_GT(dev->ftl().gcStats().blockingRounds, 0u);
    ASSERT_EQ(dev->spoStats().tornPages, 1u);
    EXPECT_EQ(saveImage(*dev), readData("snapshot_v1_aged.bin"));
}

TEST(SnapshotV1, CommittedImagesLoadAndSaveByteIdentically)
{
    for (const char *name :
         {"snapshot_v1_fresh.bin", "snapshot_v1_aged.bin"}) {
        const std::string image = readData(name);
        ASSERT_FALSE(image.empty()) << name;
        sim::Simulator s;
        auto dev = tinyHpsDevice(s);
        core::BinReader r(image);
        dev->load(r);
        ASSERT_TRUE(r.ok()) << name;
        EXPECT_EQ(r.remaining(), 0u) << name;
        EXPECT_EQ(saveImage(*dev), image) << name;
    }
}

TEST(SnapshotV1, NonZeroTrimSlotFailsToLoad)
{
    // The v1 journal section keeps two trim counters (u64 slots 3 and
    // 9) and an empty trim table (u64 length 0, then a mode byte 0) at
    // its end. A load requires each of them to be zero.
    ftl::PageMap map(64);
    const ftl::JournalConfig cfg;
    core::BinWriter w;
    ftl::MetaJournal(map, cfg).save(w);
    const std::string saved = w.take();
    {
        ftl::MetaJournal j(map, cfg);
        core::BinReader r(saved);
        j.load(r);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r.remaining(), 0u);
    }

    for (const std::size_t at : {std::size_t{2 * 8}, std::size_t{8 * 8},
                                 saved.size() - 9, saved.size() - 1}) {
        std::string bytes = saved;
        bytes[at] = 1;
        ftl::MetaJournal j(map, cfg);
        core::BinReader r(bytes);
        j.load(r);
        EXPECT_FALSE(r.ok()) << "journal byte " << at;
    }
}

TEST(SnapshotV1, LoadReplacesEarlierState)
{
    // Loading the fresh image over an aged device must leave no trace
    // of the aged tables (load clears before translating forward).
    sim::Simulator s;
    auto dev = tinyHpsDevice(s);
    ageDevice(s, *dev);
    const std::string fresh = readData("snapshot_v1_fresh.bin");
    core::BinReader r(fresh);
    dev->load(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(saveImage(*dev), fresh);
}

TEST(SnapshotV1, EveryTruncationFailsCleanly)
{
    // Every strict prefix of a committed image, loaded into a fresh
    // device, must leave the reader failed (or bytes over) without
    // crashing. Under ASan and forced DCHECKs this sweeps each field
    // read of every snapshotted class through its short-image path.
    for (const char *name :
         {"snapshot_v1_fresh.bin", "snapshot_v1_aged.bin"}) {
        const std::string image = readData(name);
        ASSERT_FALSE(image.empty()) << name;
        std::size_t accepted = 0;
        for (std::size_t n = 0; n < image.size(); ++n) {
            sim::Simulator s;
            auto dev = tinyHpsDevice(s);
            core::BinReader r(std::string_view(image).substr(0, n));
            dev->load(r);
            if (r.ok() && r.remaining() == 0) {
                ADD_FAILURE() << name << " prefix of " << n
                              << " bytes loads as a whole image";
                ++accepted;
            }
        }
        EXPECT_EQ(accepted, 0u) << name;
    }
}
