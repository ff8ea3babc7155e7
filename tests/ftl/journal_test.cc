/**
 * @file
 * MetaJournal protocol tests: sequence accounting, page-flush and
 * barrier semantics, automatic checkpoints, and snapshot round-trips
 * (DESIGN.md §13).
 */

#include <gtest/gtest.h>

#include "core/binio.hh"
#include "ftl/journal.hh"
#include "ftl/mapping.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

MapEntry
entryAt(std::int32_t plane, std::uint64_t ppn)
{
    MapEntry e;
    e.planeLinear = plane;
    e.pool = 0;
    e.unit = 0;
    e.ppn = flash::Ppn{ppn};
    return e;
}

JournalConfig
tinyJournal(std::uint32_t records_per_page = 4,
            std::uint32_t checkpoint_every = 1u << 16)
{
    JournalConfig cfg;
    cfg.recordsPerPage = records_per_page;
    cfg.checkpointEveryRecords = checkpoint_every;
    return cfg;
}

} // namespace

TEST(MetaJournal, SequenceNumbersAreMonotonePerRecord)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal());
    EXPECT_EQ(j.seq(), 0u);
    EXPECT_EQ(j.recordWrite(flash::Lpn{0}, entryAt(0, 1)), 1u);
    EXPECT_EQ(j.recordRelocation(flash::Lpn{0}, entryAt(0, 2)), 2u);
    EXPECT_EQ(j.seq(), 2u);
    EXPECT_EQ(j.stats().writeRecords, 1u);
    EXPECT_EQ(j.stats().relocRecords, 1u);
}

TEST(MetaJournal, RecordsMutateTheMapThroughTheGateway)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal());
    j.recordWrite(flash::Lpn{5}, entryAt(0, 7));
    ASSERT_TRUE(map.mapped(flash::Lpn{5}));
    EXPECT_EQ(map.lookup(flash::Lpn{5}).ppn, flash::Ppn{7});
    j.recordRelocation(flash::Lpn{5}, entryAt(1, 9));
    EXPECT_EQ(map.lookup(flash::Lpn{5}).planeLinear, 1);
}

TEST(MetaJournal, PageFlushMakesRecordsDurable)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal(4));
    for (std::int64_t i = 0; i < 3; ++i)
        j.recordWrite(flash::Lpn{i}, entryAt(0, i));
    // Three records buffered in the open page: nothing durable yet.
    EXPECT_EQ(j.durableSeq(), 0u);
    EXPECT_EQ(j.openPageRecords(), 3u);
    EXPECT_EQ(j.stats().pagesFlushed, 0u);

    j.recordWrite(flash::Lpn{3}, entryAt(0, 3));
    // Fourth record fills the page; everything reaches flash.
    EXPECT_EQ(j.durableSeq(), 4u);
    EXPECT_EQ(j.openPageRecords(), 0u);
    EXPECT_EQ(j.stats().pagesFlushed, 1u);
    EXPECT_EQ(j.pagesSinceCheckpoint(), 1u);
}

TEST(MetaJournal, FlushBarrierForcesThePartialPageOut)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal(8));
    j.recordWrite(flash::Lpn{0}, entryAt(0, 0));
    EXPECT_LT(j.durableSeq(), j.seq());
    j.flushBarrier();
    EXPECT_EQ(j.durableSeq(), j.seq());
    EXPECT_EQ(j.openPageRecords(), 0u);
    EXPECT_EQ(j.stats().barrierFlushes, 1u);
    // An empty barrier is free: no phantom page flush.
    j.flushBarrier();
    EXPECT_EQ(j.stats().barrierFlushes, 1u);
}

TEST(MetaJournal, CheckpointTruncatesTheJournal)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal(2));
    for (std::int64_t i = 0; i < 6; ++i)
        j.recordWrite(flash::Lpn{i}, entryAt(0, i));
    EXPECT_EQ(j.pagesSinceCheckpoint(), 3u);
    j.checkpoint();
    EXPECT_EQ(j.pagesSinceCheckpoint(), 0u);
    EXPECT_EQ(j.durableSeq(), j.seq());
    EXPECT_EQ(j.stats().checkpoints, 1u);
    // 64 units at 2 records/page -> 32 checkpoint pages.
    EXPECT_EQ(j.checkpointPages(), 32u);
}

TEST(MetaJournal, AutomaticCheckpointAfterConfiguredRecords)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal(2, 4));
    for (std::int64_t i = 0; i < 8; ++i)
        j.recordWrite(flash::Lpn{i}, entryAt(0, i));
    EXPECT_EQ(j.stats().checkpoints, 2u);
    EXPECT_EQ(j.pagesSinceCheckpoint(), 0u);
}

TEST(MetaJournal, RetireRecordIsImmediatelyDurable)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal(64));
    j.recordWrite(flash::Lpn{0}, entryAt(0, 0));
    j.recordRetire();
    // Spare accounting must never roll back across a crash.
    EXPECT_EQ(j.durableSeq(), j.seq());
    EXPECT_EQ(j.stats().retireRecords, 1u);
}

TEST(MetaJournal, RecoveryHelpersRebuildTheMap)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal());
    j.recordWrite(flash::Lpn{3}, entryAt(0, 3));
    j.resetMapForRecovery();
    EXPECT_EQ(map.mappedCount(), 0u);
    j.installRecovered(flash::Lpn{3}, entryAt(2, 11));
    EXPECT_EQ(map.lookup(flash::Lpn{3}).planeLinear, 2);
    EXPECT_EQ(map.mappedCount(), 1u);
}

TEST(MetaJournal, SnapshotRoundTripPreservesEverything)
{
    PageMap map(64);
    MetaJournal j(map, tinyJournal(4));
    for (std::int64_t i = 0; i < 7; ++i)
        j.recordWrite(flash::Lpn{i}, entryAt(0, i));
    j.recordErase(12345);

    core::BinWriter w;
    j.save(w);
    const std::string image = w.data();

    PageMap map2(64);
    MetaJournal k(map2, tinyJournal(4));
    core::BinReader r(image);
    k.load(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(k.seq(), j.seq());
    EXPECT_EQ(k.durableSeq(), j.durableSeq());
    EXPECT_EQ(k.openPageRecords(), j.openPageRecords());
    EXPECT_EQ(k.pagesSinceCheckpoint(), j.pagesSinceCheckpoint());
    EXPECT_EQ(k.checkpointPages(), j.checkpointPages());
    EXPECT_EQ(k.lastEraseDone(), j.lastEraseDone());
    EXPECT_EQ(k.stats().pagesFlushed, j.stats().pagesFlushed);
}
