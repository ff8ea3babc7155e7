/**
 * @file
 * Differential power-up recovery test: seeded write / flush histories
 * on a small device, cut several times, with every recovery checked
 * against a reference written here (DESIGN.md §13.3).
 *
 * The reference reads the pools' OOB (lpn, seq) stamps straight off
 * every page before the cut, skips the torn program, and keeps the
 * highest-seq copy of each lpn in a std::map: the highest seq wins.
 * It is slow and obviously right. After each recovery the whole
 * logical range, mappedCount() and every RecoveryReport field must
 * match it, and the audit checkers must be clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.hh"
#include "ftl/ftl.hh"
#include "sim/random.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

/** One stamped copy of a logical unit found on flash. */
struct RefCopy
{
    std::uint64_t seq = 0;
    MapEntry at;
};

/** What the reference expects one recovery to produce. */
struct RefRecovery
{
    std::map<std::int64_t, MapEntry> map;
    RecoveryReport report;
};

class DiffRig
{
  public:
    explicit DiffRig(bool hybrid)
        : geom_(makeGeom(hybrid)),
          timing_(makeTiming(hybrid)),
          array_(geom_, timing_, true),
          ftl_(array_, makeCfg())
    {
    }

    Ftl &ftl() { return ftl_; }

    /**
     * Write @p n consecutive lpns from @p start as one page group in
     * @p pool, after the previous operation completed.
     */
    void
    write(std::uint32_t pool, std::int64_t start, std::uint32_t n)
    {
        const WriteResult r =
            ftl_.writeGroup(pool, flash::Lpn{start}, n, now_);
        ASSERT_TRUE(r.accepted);
        now_ = r.done;
        lastWrite_ = ftl_.map().lookup(flash::Lpn{start});
        lastWriteDone_ = r.done;
    }

    /** Simulated time of the last completed operation. */
    sim::Time now() const { return now_; }

    /**
     * Cut power at @p crash and check recovery against the reference.
     * @return The recovery's report.
     */
    RecoveryReport
    cutAndCheck(sim::Time crash)
    {
        RefRecovery ref = reference(crash);
        const RecoveryReport rep = ftl_.powerFailAndRecover(crash);
        now_ = std::max(now_, crash) + sim::milliseconds(1);

        expectSameReport(rep, ref.report);
        for (std::int64_t l = 0;
             l < static_cast<std::int64_t>(ftl_.logicalUnits()); ++l) {
            const MapEntry got = ftl_.map().lookup(flash::Lpn{l});
            const auto it = ref.map.find(l);
            if (it == ref.map.end())
                EXPECT_FALSE(got.mapped()) << "lpn " << l;
            else
                EXPECT_EQ(got, it->second) << "lpn " << l;
        }
        EXPECT_EQ(ftl_.map().mappedCount(), ref.map.size());
        expectCheckersClean();
        return rep;
    }

  private:
    static flash::Geometry
    makeGeom(bool hybrid)
    {
        flash::Geometry g;
        g.channels = 2;
        g.chipsPerChannel = 1;
        g.diesPerChip = 1;
        g.planesPerDie = 2;
        g.pagesPerBlock = 8;
        if (hybrid)
            g.pools = {flash::PoolConfig{4096, 8},
                       flash::PoolConfig{8192, 8}};
        else
            g.pools = {flash::PoolConfig{4096, 12}};
        return g;
    }

    static flash::Timing
    makeTiming(bool hybrid)
    {
        flash::Timing t;
        t.pools = {flash::Timing::page4k()};
        if (hybrid)
            t.pools.push_back(flash::Timing::page8k());
        return t;
    }

    static FtlConfig
    makeCfg()
    {
        FtlConfig cfg;
        cfg.opRatio = 0.45; // small logical space: heavy GC churn
        cfg.gc.hardFreeBlocks = 1;
        cfg.gc.softFreeBlocks = 2;
        // Short journal pages and checkpoints, so a history mixes
        // page-fill durability, barriers and checkpoints.
        cfg.journal.recordsPerPage = 64;
        cfg.journal.checkpointEveryRecords = 2048;
        return cfg;
    }

    /**
     * The expected outcome of a cut at @p crash, read from the device
     * before recovery touches it.
     */
    RefRecovery
    reference(sim::Time crash)
    {
        RefRecovery ref;
        RecoveryReport &rep = ref.report;
        const MetaJournal &j = ftl_.journal();

        // Only the last host program can be in flight at the cut; its
        // page is torn. Copy its location before forgetting it.
        const bool torn = lastWrite_ && lastWriteDone_ > crash;
        const MapEntry torn_at = torn ? *lastWrite_ : MapEntry{};
        rep.tornPages = torn ? 1 : 0;
        lastWrite_.reset();

        // Every stamped copy on flash; the highest seq wins.
        std::map<std::int64_t, RefCopy> winners;
        std::uint64_t copies = 0;
        for (std::uint32_t pl = 0; pl < geom_.planeCount(); ++pl) {
            for (std::uint32_t k = 0; k < geom_.pools.size(); ++k) {
                const flash::BlockPool &bp = array_.plane(pl).pool(k);
                for (std::uint64_t p = 0; p < bp.pageCount(); ++p) {
                    MapEntry at;
                    at.planeLinear = static_cast<std::int32_t>(pl);
                    at.pool = static_cast<std::uint16_t>(k);
                    at.ppn = flash::Ppn{p};
                    const std::uint64_t seq = bp.pageSeq(at.ppn);
                    if (seq == 0 || (torn && samePage(at, torn_at)))
                        continue;
                    for (std::uint32_t u = 0; u < bp.unitsPerPage();
                         ++u) {
                        const flash::Lpn lpn = bp.lpnAt(at.ppn, u);
                        if (lpn == flash::kNoLpn)
                            continue;
                        at.unit = static_cast<std::uint16_t>(u);
                        ++copies;
                        RefCopy &w = winners[lpn.value()];
                        if (seq > w.seq)
                            w = RefCopy{seq, at};
                    }
                }
                // Pages the scan examines, and the open block's share.
                const std::uint32_t ppb = bp.pagesPerBlock();
                for (std::uint32_t b = 0; b < bp.blockCount(); ++b) {
                    const flash::BlockId bid{b};
                    if (!bp.blockFree(bid) && !bp.blockRetired(bid))
                        rep.scannedPages +=
                            std::min(bp.writtenPages(bid), ppb);
                }
                if (bp.activeBlock() >= 0) {
                    const flash::BlockId ab{
                        static_cast<std::uint32_t>(bp.activeBlock())};
                    rep.openBlockScanPages +=
                        std::min(bp.writtenPages(ab), ppb);
                    ++rep.sealedBlocks;
                }
            }
        }
        rep.staleCopies = copies - winners.size();
        for (const auto &[lpn, w] : winners)
            ref.map[lpn] = w.at;
        rep.recoveredUnits = winners.size();

        // Cost model: checkpoint + journal read back, open-block and
        // torn-page probes, a re-run erase, a fresh checkpoint.
        const auto &meta = timing_.pools[ftl_.writeSplit().tailPool];
        const std::uint64_t per_page = j.config().recordsPerPage;
        rep.reErasedBlocks = j.lastEraseDone() > crash ? 1 : 0;
        rep.reEraseTime =
            rep.reErasedBlocks ? timing_.eraseLatency : sim::Time{0};
        rep.checkpointPagesRead = j.checkpointPages();
        rep.journalPagesRead =
            j.pagesSinceCheckpoint() + (j.openPageRecords() > 0 ? 1 : 0);
        rep.checkpointReadTime =
            static_cast<sim::Time>(rep.checkpointPagesRead) *
            meta.readLatency;
        rep.journalReplayTime =
            static_cast<sim::Time>(rep.journalPagesRead) *
            meta.readLatency;
        rep.scanTime = static_cast<sim::Time>(rep.openBlockScanPages +
                                              rep.tornPages) *
                       meta.readLatency;
        rep.checkpointWriteTime =
            static_cast<sim::Time>((ftl_.logicalUnits() + per_page - 1) /
                                   per_page) *
            meta.programLatency;
        rep.totalTime = rep.checkpointReadTime + rep.journalReplayTime +
                        rep.scanTime + rep.reEraseTime +
                        rep.checkpointWriteTime;
        return ref;
    }

    static bool
    samePage(const MapEntry &a, const MapEntry &b)
    {
        return a.planeLinear == b.planeLinear && a.pool == b.pool &&
               a.ppn == b.ppn;
    }

    static void
    expectSameReport(const RecoveryReport &got, const RecoveryReport &want)
    {
#define EXPECT_FIELD(f) EXPECT_EQ(got.f, want.f) << #f
        EXPECT_FIELD(tornPages);
        EXPECT_FIELD(scannedPages);
        EXPECT_FIELD(recoveredUnits);
        EXPECT_FIELD(staleCopies);
        EXPECT_FIELD(reErasedBlocks);
        EXPECT_FIELD(sealedBlocks);
        EXPECT_FIELD(checkpointPagesRead);
        EXPECT_FIELD(journalPagesRead);
        EXPECT_FIELD(openBlockScanPages);
        EXPECT_FIELD(checkpointReadTime);
        EXPECT_FIELD(journalReplayTime);
        EXPECT_FIELD(scanTime);
        EXPECT_FIELD(reEraseTime);
        EXPECT_FIELD(checkpointWriteTime);
        EXPECT_FIELD(totalTime);
#undef EXPECT_FIELD
    }

    void
    expectCheckersClean() const
    {
        auto run = [](const char *name, auto checker) {
            check::CheckContext ctx(name);
            checker(ctx);
            EXPECT_EQ(ctx.failures(), 0u)
                << name << ": "
                << (ctx.violations().empty() ? std::string("(no detail)")
                                             : ctx.violations().front());
        };
        run("mapping-bijection", [&](check::CheckContext &c) {
            check::checkMappingBijection(ftl_, c);
        });
        run("unit-conservation", [&](check::CheckContext &c) {
            check::checkUnitConservation(ftl_, c);
        });
        run("journal-accounting", [&](check::CheckContext &c) {
            check::checkJournalAccounting(ftl_, c);
        });
        run("pageseq-consistency", [&](check::CheckContext &c) {
            check::checkPageSeqConsistency(ftl_, c);
        });
        run("array-accounting", [&](check::CheckContext &c) {
            check::checkArrayAccounting(array_, c);
        });
    }

    flash::Geometry geom_;
    flash::Timing timing_;
    flash::FlashArray array_;
    Ftl ftl_;

    sim::Time now_ = 0;
    /** Location and completion of the last host write since a cut. */
    std::optional<MapEntry> lastWrite_;
    sim::Time lastWriteDone_ = 0;
};

} // namespace

/** (scheme-hybrid?, seed) parameter. */
class RecoveryDifferential
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

TEST_P(RecoveryDifferential, MatchesReferenceAcrossRepeatedCuts)
{
    const bool hybrid = std::get<0>(GetParam());
    DiffRig rig(hybrid);
    Ftl &ftl = rig.ftl();
    const auto logical = static_cast<std::int64_t>(ftl.logicalUnits());
    sim::Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())));

    // Each epoch is a random history followed by one cut, so every cut
    // after the first lands on a recovered device.
    RecoveryReport seen;
    for (int epoch = 0; epoch < 8; ++epoch) {
        for (int step = 0; step < 400; ++step) {
            const auto op = rng.uniformInt(0, 19);
            if (op < 19) { // write, often an overwrite
                const auto pool = static_cast<std::uint32_t>(
                    rng.uniformInt(0, hybrid ? 1 : 0));
                const std::uint32_t n = pool == 1 ? 2 : 1;
                ASSERT_NO_FATAL_FAILURE(rig.write(
                    pool, rng.uniformInt(0, logical - n), n));
            } else {
                ftl.flushBarrier();
            }
        }
        // Odd epochs end with a program still in flight: it is torn.
        sim::Time crash = rig.now() + sim::milliseconds(1);
        if (epoch % 2 == 1) {
            ASSERT_NO_FATAL_FAILURE(
                rig.write(0, rng.uniformInt(0, logical - 1), 1));
            crash = rig.now() - 1;
        }
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        const RecoveryReport rep = rig.cutAndCheck(crash);
        if (HasFailure())
            return;
        seen.tornPages += rep.tornPages;
        seen.staleCopies += rep.staleCopies;
    }
    // The histories must have exercised what they claim to.
    EXPECT_GT(ftl.gcStats().erasedBlocks, 0u);
    EXPECT_EQ(seen.tornPages, 4u);
    EXPECT_GT(seen.staleCopies, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RecoveryDifferential,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 3, 4, 5, 6)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>> &info) {
        return std::string(std::get<0>(info.param) ? "Hybrid" : "Flat") +
               "Seed" + std::to_string(std::get<1>(info.param));
    });
