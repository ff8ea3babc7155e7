/**
 * @file
 * Ftl::powerFailAndRecover: the power-up recovery procedure.
 *
 * Lives in its own translation unit (with journal.cc) on the other
 * side of the emmclint `durable-ftl-mutation` fence: recovery is the
 * one consumer allowed to rebuild the mapping table wholesale, and it
 * does so exclusively through the MetaJournal recovery API.
 *
 * State rebuild vs cost model: the simulator rebuilds the mapping by
 * scanning the OOB (lpn, seq) stamps of *every* written page — a
 * shortcut that is exact because those stamps are the ground truth a
 * real controller's checkpoint+journal merely caches. The *time*
 * charged, however, follows the realistic protocol: read the last
 * checkpoint, replay the journal pages written since, OOB-scan only
 * the blocks that were open at the cut, re-run interrupted erases,
 * and write a fresh checkpoint.
 */

#include <algorithm>

#include "ftl/ftl.hh"
#include "sim/logging.hh"

namespace emmcsim::ftl {

RecoveryReport
Ftl::powerFailAndRecover(sim::Time crash_time)
{
    RecoveryReport rep;
    const auto &geom = array_.geometry();
    const auto &timing = array_.timing();

    // 1. Tear the in-flight host program. The flash array mutates
    // state eagerly at issue time, so a program whose completion lies
    // beyond the cut left a half-programmed page: its OOB stamps are
    // unreadable and the data is gone. Event ordering guarantees the
    // command's completion had not fired, so the host never saw an
    // acknowledgment for it (rolling back is legal).
    if (lastHostProgram_.valid && lastHostProgram_.done > crash_time) {
        auto &bp = array_.plane(lastHostProgram_.planeLinear)
                       .pool(lastHostProgram_.pool);
        bp.tearPage(lastHostProgram_.ppn);
        ++rep.tornPages;
    }
    lastHostProgram_.valid = false;

    // 2. An erase whose completion lies beyond the cut is re-run at
    // power-up. Block state already reads as erased (the simulator
    // committed it eagerly); only the re-erase time is charged.
    if (journal_.lastEraseDone() > crash_time) {
        ++rep.reErasedBlocks;
        rep.reEraseTime = timing.eraseLatency;
    }

    // 3. Rebuild the mapping from the OOB stamps. RAM validity state
    // is gone. The map itself holds the running winner of each logical
    // unit, the copy with the highest seq; a winner's seq is the stamp
    // of the page its entry points at. One pass visits only written
    // pages, so host cost follows the data on flash, not the device's
    // capacity.
    auto poolOf = [this](const MapEntry &e) -> flash::BlockPool & {
        return array_.plane(static_cast<std::uint32_t>(e.planeLinear))
            .pool(e.pool);
    };
    // Visit every stamped unit of every non-free, non-retired block as
    // (copy, lpn, seq); returns the pages examined.
    auto scanStamped = [this, &geom](auto &&visit) {
        std::uint64_t pages = 0;
        for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
            for (std::uint32_t k = 0; k < geom.pools.size(); ++k) {
                const auto &bp = array_.plane(pl).pool(k);
                const std::uint32_t ppb = bp.pagesPerBlock();
                MapEntry copy;
                copy.planeLinear = static_cast<std::int32_t>(pl);
                copy.pool = static_cast<std::uint16_t>(k);
                for (std::uint32_t b = 0; b < bp.blockCount(); ++b) {
                    const flash::BlockId bid{b};
                    if (bp.blockFree(bid) || bp.blockRetired(bid))
                        continue;
                    const std::uint32_t written =
                        std::min(bp.writtenPages(bid), ppb);
                    for (std::uint32_t pg = 0; pg < written; ++pg) {
                        copy.ppn = units::blockFirstPage(bid, ppb) + pg;
                        ++pages;
                        const std::uint64_t seq = bp.pageSeq(copy.ppn);
                        if (seq == 0)
                            continue; // torn or sealed-over page
                        for (std::uint32_t u = 0; u < bp.unitsPerPage();
                             ++u) {
                            const flash::Lpn lpn = bp.lpnAt(copy.ppn, u);
                            if (lpn == flash::kNoLpn)
                                continue;
                            copy.unit = static_cast<std::uint16_t>(u);
                            visit(copy, lpn, seq);
                        }
                    }
                }
            }
        }
        return pages;
    };

    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl)
        for (std::uint32_t k = 0; k < geom.pools.size(); ++k)
            array_.plane(pl).pool(k).beginRecoveryScan();
    journal_.resetMapForRecovery();

    // A copy that beats the winner invalidates it and takes its entry
    // and its valid bit. Every copy after the first of an lpn is a
    // stale copy, whichever of the two wins.
    rep.scannedPages = scanStamped(
        [&](const MapEntry &copy, flash::Lpn lpn, std::uint64_t seq) {
            if (map_.mapped(lpn)) {
                ++rep.staleCopies;
                const MapEntry winner = map_.lookup(lpn);
                flash::BlockPool &wp = poolOf(winner);
                if (seq <= wp.pageSeq(winner.ppn))
                    return;
                wp.invalidateUnit(winner.ppn, winner.unit);
            } else {
                ++rep.recoveredUnits;
            }
            journal_.installRecovered(lpn, copy);
            poolOf(copy).revalidateUnit(copy.ppn, copy.unit);
        });

    // 4. Seal the blocks open at the cut. Cost model: a real controller
    // OOB-scans only the blocks its checkpoint had not sealed.
    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
        for (std::uint32_t k = 0; k < geom.pools.size(); ++k) {
            auto &bp = array_.plane(pl).pool(k);
            if (bp.activeBlock() < 0)
                continue;
            const flash::BlockId ab{
                static_cast<std::uint32_t>(bp.activeBlock())};
            rep.openBlockScanPages +=
                std::min(bp.writtenPages(ab), bp.pagesPerBlock());
            bp.sealOpenBlocks();
            ++rep.sealedBlocks;
        }
    }

    // 5. Volatile placement state restarts from scratch.
    alloc_.resetCursors();

    // 6. Time the realistic protocol. Metadata pages live in the
    // split's small-page pool; open-block OOB scans and torn-page
    // probes pay that pool's read latency.
    const auto &meta = timing.pools[split_.tailPool];
    rep.checkpointPagesRead = journal_.checkpointPages();
    rep.journalPagesRead = journal_.pagesSinceCheckpoint() +
                           (journal_.openPageRecords() > 0 ? 1 : 0);
    rep.checkpointReadTime =
        static_cast<sim::Time>(rep.checkpointPagesRead) *
        meta.readLatency;
    rep.journalReplayTime =
        static_cast<sim::Time>(rep.journalPagesRead) * meta.readLatency;
    rep.scanTime =
        static_cast<sim::Time>(rep.openBlockScanPages + rep.tornPages) *
        meta.readLatency;

    // 7. A fresh checkpoint closes recovery so a second crash never
    // replays this one's work.
    journal_.checkpoint();
    rep.checkpointWriteTime =
        static_cast<sim::Time>(journal_.checkpointPages()) *
        meta.programLatency;

    rep.totalTime = rep.checkpointReadTime + rep.journalReplayTime +
                    rep.scanTime + rep.reEraseTime +
                    rep.checkpointWriteTime;

    EMMCSIM_LOG_DEBUG(
        "ftl", "power-up recovery: " +
                   std::to_string(rep.recoveredUnits) + " units, " +
                   std::to_string(rep.tornPages) + " torn, " +
                   std::to_string(rep.totalTime) + " ns");
    return rep;
}

} // namespace emmcsim::ftl
