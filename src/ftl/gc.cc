#include "ftl/gc.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "sim/logging.hh"

namespace emmcsim::ftl {

GarbageCollector::GarbageCollector(flash::FlashArray &array, PageMap &map,
                                   GcConfig cfg, BadBlockManager &bbm,
                                   MetaJournal &journal)
    : array_(array), map_(map), cfg_(cfg), bbm_(bbm), journal_(journal)
{
    EMMCSIM_ASSERT(cfg_.hardFreeBlocks >= 1,
                   "GC needs at least one reserved free block");
    EMMCSIM_ASSERT(cfg_.softFreeBlocks >= cfg_.hardFreeBlocks,
                   "soft GC threshold below hard threshold");
}

std::int32_t
GarbageCollector::pickVictim(const flash::BlockPool &pool) const
{
    const std::uint32_t full_valid =
        pool.pagesPerBlock() * pool.unitsPerPage();
    std::int32_t victim = -1;
    double best_score = -1.0;
    for (std::uint32_t b = 0; b < pool.blockCount(); ++b) {
        const flash::BlockId bid{b};
        if (!pool.blockFull(bid))
            continue;
        if (static_cast<std::int32_t>(b) == pool.activeBlock())
            continue;
        // Retired blocks hold nothing and must never be touched again;
        // suspect blocks are drained by the scrub path, whose
        // retirement nets no free block (space-driven GC would spin on
        // them).
        if (pool.blockRetired(bid) || pool.blockSuspect(bid))
            continue;
        std::uint32_t valid = pool.validUnitsInBlock(bid);
        // Only blocks with at least one page worth of stale units net
        // free space after relocation; collecting anything fuller
        // would spin without progress.
        if (valid + pool.unitsPerPage() > full_valid)
            continue;

        double score = 0.0;
        switch (cfg_.victimPolicy) {
          case GcVictimPolicy::Greedy:
            // Higher score for fewer valid units.
            score = static_cast<double>(full_valid - valid);
            break;
          case GcVictimPolicy::CostBenefit: {
            double invalid = static_cast<double>(full_valid - valid);
            double age = static_cast<double>(pool.blockAge(bid)) + 1.0;
            score = age * invalid /
                    (2.0 * static_cast<double>(valid) + 1.0);
            break;
          }
        }
        if (score > best_score) {
            best_score = score;
            victim = static_cast<std::int32_t>(b);
        }
    }
    return victim;
}

sim::Time
GarbageCollector::collectOne(std::uint32_t plane_linear, std::uint32_t pool,
                             sim::Time earliest, bool &reclaimed)
{
    auto &bp = array_.plane(plane_linear).pool(pool);
    std::int32_t victim = pickVictim(bp);
    if (victim < 0) {
        sim::fatal("GC cannot find a victim block: device is full of "
                   "valid data (raise over-provisioning)");
    }
    const flash::BlockId vb{static_cast<std::uint32_t>(victim)};
    const std::uint32_t ppb = bp.pagesPerBlock();
    const std::uint32_t upp = bp.unitsPerPage();
    const flash::Geometry &geom = array_.geometry();

    // Gather the victim's live units, reading each source page once.
    struct LiveUnit
    {
        flash::Ppn srcPpn;
        std::uint32_t srcUnit;
    };
    std::vector<LiveUnit> live;
    sim::Time t = earliest;
    for (std::uint32_t pg = 0; pg < ppb; ++pg) {
        flash::Ppn ppn = units::blockFirstPage(vb, ppb) + pg;
        if (bp.validUnitsInPage(ppn) == 0)
            continue;
        const flash::PageAddr src =
            flash::pageAddr(geom, plane_linear, pool, ppn);
        t = std::max(t, array_.copybackRead(src, t).done);
        for (std::uint32_t u = 0; u < upp; ++u) {
            if (bp.unitValid(ppn, u))
                live.push_back(LiveUnit{ppn, u});
        }
    }

    // Compact the live units into fresh pages of the same plane-pool.
    std::size_t i = 0;
    while (i < live.size()) {
        const std::optional<flash::Ppn> dst =
            copybackProgramChecked(plane_linear, pool, t);
        if (!dst) {
            // Out of relocation space (failures ate the free pages):
            // end the round with the victim's remaining live units in
            // place.
            reclaimed = false;
            return t;
        }
        for (std::uint32_t u = 0; u < upp && i < live.size(); ++u, ++i)
            relocateUnit(plane_linear, pool, live[i].srcPpn,
                         live[i].srcUnit, *dst, u);
    }

    // The victim now holds no live units; reclaim (erase or retire) it.
    reclaimed = true;
    return reclaimBlock(plane_linear, pool, vb, t);
}

void
GarbageCollector::relocateUnit(std::uint32_t plane_linear,
                               std::uint32_t pool, flash::Ppn src,
                               std::uint32_t src_unit, flash::Ppn dst,
                               std::uint32_t dst_unit)
{
    auto &bp = array_.plane(plane_linear).pool(pool);
    const flash::Lpn lpn = bp.lpnAt(src, src_unit);
    const MapEntry cur = map_.lookup(lpn);
    EMMCSIM_ASSERT(cur.mapped() &&
                       cur.planeLinear ==
                           static_cast<std::int32_t>(plane_linear) &&
                       cur.pool == pool && cur.ppn == src &&
                       cur.unit == src_unit,
                   "map and pool state diverged during GC");
    bp.invalidateUnit(src, src_unit);
    bp.setUnit(dst, dst_unit, lpn);
    MapEntry e;
    e.planeLinear = static_cast<std::int32_t>(plane_linear);
    e.pool = static_cast<std::uint16_t>(pool);
    e.ppn = dst;
    e.unit = static_cast<std::uint16_t>(dst_unit);
    bp.stampPageSeq(dst, journal_.recordRelocation(lpn, e));
    ++stats_.relocatedUnits;
}

std::optional<flash::Ppn>
GarbageCollector::copybackProgramChecked(std::uint32_t plane_linear,
                                         std::uint32_t pool, sim::Time &t)
{
    auto &bp = array_.plane(plane_linear).pool(pool);
    std::uint32_t attempts = 0;
    for (;;) {
        if (!bp.hasFreePage())
            return std::nullopt;
        flash::Ppn dst = bp.allocatePage();
        flash::OpResult pr = array_.copybackProgram(
            flash::pageAddr(array_.geometry(), plane_linear, pool, dst), t);
        t = std::max(t, pr.done);
        if (pr.status != flash::OpStatus::ProgramFail)
            return dst;
        // The failed page is lost (it was allocated but holds
        // nothing); the block is flagged for scrub-and-retire and the
        // data re-issued to the next page. Unlike the host write
        // path, GC does not seal the block: sealing mid-collection
        // would burn the thin free reserve relocation depends on.
        bbm_.noteProgramFailure();
        bp.markSuspect(units::pageToBlock(dst, bp.pagesPerBlock()));
        bbm_.noteRelocatedProgram();
        EMMCSIM_ASSERT(++attempts <= 16,
                       "GC copyback relocation not converging under "
                       "program failures");
    }
}

sim::Time
GarbageCollector::reclaimBlock(std::uint32_t plane_linear,
                               std::uint32_t pool, flash::BlockId b,
                               sim::Time earliest)
{
    auto &bp = array_.plane(plane_linear).pool(pool);
    flash::OpResult er = array_.erase(
        flash::pageAddr(array_.geometry(), plane_linear, pool,
                        units::blockFirstPage(b, bp.pagesPerBlock())),
        earliest);
    sim::Time t = std::max(earliest, er.done);

    if (er.status == flash::OpStatus::EraseFail) {
        bbm_.noteEraseFailure();
        bp.retireBlock(b);
        bbm_.recordRetirement(plane_linear, pool, b,
                              RetireCause::EraseFail);
        journal_.recordRetire();
        ++stats_.retiredBlocks;
    } else if (bp.blockSuspect(b)) {
        // A program-failed block is retired even when its erase
        // succeeds: the failure showed its cells can no longer be
        // trusted to program.
        bp.retireBlock(b);
        bbm_.recordRetirement(plane_linear, pool, b,
                              RetireCause::ProgramFail);
        journal_.recordRetire();
        ++stats_.retiredBlocks;
    } else {
        bp.eraseBlock(b);
        journal_.recordErase(t);
        ++stats_.erasedBlocks;
    }
    return t;
}

sim::Time
GarbageCollector::ensureFreePage(std::uint32_t plane_linear,
                                 std::uint32_t pool, sim::Time earliest)
{
    auto &bp = array_.plane(plane_linear).pool(pool);
    sim::Time t = earliest;
    // Reclaim while the free *pages* (free blocks plus the active
    // block's remainder) are down to the reserve. Triggering on pages
    // rather than whole blocks guarantees a collection round can
    // always relocate its victim's survivors (at most one block's
    // worth) into the space that remains.
    const std::uint64_t reserve_pages =
        static_cast<std::uint64_t>(cfg_.hardFreeBlocks) *
        bp.pagesPerBlock();
    std::uint32_t rounds = 0;
    while (bp.freePageCount() <= reserve_pages) {
        // Erase failures can shrink the pool until nothing reclaimable
        // remains; stop rebuilding the reserve then and let callers
        // dig into what is left (graceful degradation, not a panic).
        if (pickVictim(bp) < 0)
            break;
        EMMCSIM_ASSERT(rounds++ <= 2 * bp.blockCount(),
                       "blocking GC is not making progress (plane " +
                           std::to_string(plane_linear) + ", pool " +
                           std::to_string(pool) + ", free " +
                           std::to_string(bp.freeBlockCount()) + ")");
        bool reclaimed = false;
        sim::Time done = collectOne(plane_linear, pool, t, reclaimed);
        stats_.blockingTime += done - t;
        ++stats_.blockingRounds;
        t = done;
        // A round that ran out of relocation space left the pool with
        // no free page, and another round would find the same victim:
        // the device is out of space and turns read-only.
        if (!reclaimed) {
            bbm_.declareSpaceExhausted();
            break;
        }
    }
    if (rounds > 0) {
        EMMCSIM_LOG_DEBUG(
            "gc", "blocking GC: " + std::to_string(rounds) +
                      " round(s) on plane " +
                      std::to_string(plane_linear) + " pool " +
                      std::to_string(pool) + ", " +
                      std::to_string(t - earliest) + " ns");
    }
    return t;
}

bool
GarbageCollector::canReclaim(std::uint32_t plane_linear,
                             std::uint32_t pool) const
{
    return pickVictim(array_.plane(plane_linear).pool(pool)) >= 0;
}

bool
GarbageCollector::findNeedyPool(double min_invalid,
                                std::uint32_t &plane_out,
                                std::uint32_t &pool_out) const
{
    const auto &geom = array_.geometry();
    std::uint32_t best_free = std::numeric_limits<std::uint32_t>::max();
    bool found = false;
    for (std::uint32_t p = 0; p < geom.planeCount(); ++p) {
        for (std::uint32_t k = 0; k < geom.pools.size(); ++k) {
            const auto &bp = array_.plane(p).pool(k);
            std::uint32_t fr = bp.freeBlockCount();
            if (fr >= cfg_.softFreeBlocks || fr >= best_free)
                continue;
            if (!bp.hasFreePage())
                continue; // relocation has nowhere to go
            std::int32_t victim = pickVictim(bp);
            if (victim < 0)
                continue;
            const double full = static_cast<double>(
                bp.pagesPerBlock() * bp.unitsPerPage());
            const double invalid =
                full - static_cast<double>(bp.validUnitsInBlock(
                           flash::BlockId{
                               static_cast<std::uint32_t>(victim)}));
            if (invalid / full < min_invalid)
                continue; // not worth the relocation traffic
            best_free = fr;
            plane_out = p;
            pool_out = k;
            found = true;
        }
    }
    return found;
}

sim::Time
GarbageCollector::relocateSome(std::uint32_t plane_linear,
                               std::uint32_t pool, flash::BlockId victim,
                               std::uint32_t max_pages,
                               sim::Time earliest)
{
    auto &bp = array_.plane(plane_linear).pool(pool);
    const std::uint32_t ppb = bp.pagesPerBlock();
    const std::uint32_t upp = bp.unitsPerPage();

    sim::Time t = earliest;
    std::uint32_t moved = 0;
    for (std::uint32_t pg = 0; pg < ppb && moved < max_pages; ++pg) {
        flash::Ppn src_ppn = units::blockFirstPage(victim, ppb) + pg;
        if (bp.validUnitsInPage(src_ppn) == 0)
            continue;
        if (!bp.hasFreePage())
            break;

        const flash::PageAddr src =
            flash::pageAddr(array_.geometry(), plane_linear, pool, src_ppn);
        t = std::max(t, array_.copybackRead(src, t).done);

        // One destination page per source page; an incremental step
        // does not compact across pages (slightly less dense, far
        // simpler preemption).
        const std::optional<flash::Ppn> dst =
            copybackProgramChecked(plane_linear, pool, t);
        if (!dst)
            break; // program failures used up the free pages

        std::uint32_t dst_unit = 0;
        for (std::uint32_t u = 0; u < upp; ++u) {
            if (bp.unitValid(src_ppn, u))
                relocateUnit(plane_linear, pool, src_ppn, u, *dst,
                             dst_unit++);
        }
        ++moved;
    }

    if (bp.blockFull(victim) && bp.validUnitsInBlock(victim) == 0 &&
        static_cast<std::int32_t>(victim.value()) != bp.activeBlock()) {
        t = reclaimBlock(plane_linear, pool, victim, t);
    }
    return t;
}

sim::Time
GarbageCollector::scrubStep(sim::Time earliest, bool &did_work)
{
    did_work = false;
    const auto &geom = array_.geometry();
    for (std::uint32_t p = 0; p < geom.planeCount(); ++p) {
        for (std::uint32_t k = 0; k < geom.pools.size(); ++k) {
            auto &bp = array_.plane(p).pool(k);
            // Scrubbing relocates data without freeing a block, so it
            // must not eat into the reserve the write path needs.
            const std::uint64_t reserve =
                static_cast<std::uint64_t>(cfg_.hardFreeBlocks) *
                bp.pagesPerBlock();
            if (bp.freePageCount() <= reserve)
                continue;
            for (std::uint32_t b = 0; b < bp.blockCount(); ++b) {
                const flash::BlockId bid{b};
                if (!bp.blockSuspect(bid))
                    continue;
                if (!bp.blockFull(bid) ||
                    static_cast<std::int32_t>(b) == bp.activeBlock())
                    continue;
                sim::Time done = relocateSome(
                    p, k, bid, cfg_.idleStepPages, earliest);
                if (done == earliest)
                    continue;
                ++stats_.scrubSteps;
                did_work = true;
                EMMCSIM_LOG_DEBUG(
                    "gc", "scrub step on plane " + std::to_string(p) +
                              " pool " + std::to_string(k) +
                              " suspect block " + std::to_string(b));
                return done;
            }
        }
    }
    return earliest;
}

sim::Time
GarbageCollector::idleStep(sim::Time earliest, bool &did_work)
{
    did_work = false;
    // Draining suspect blocks toward retirement takes priority over
    // space reclamation: a suspect block is one program failure away
    // from losing data in a real part.
    sim::Time scrubbed = scrubStep(earliest, did_work);
    if (did_work) {
        stats_.idleTime += scrubbed - earliest;
        return scrubbed;
    }
    std::uint32_t plane = 0;
    std::uint32_t pool = 0;
    if (!findNeedyPool(cfg_.idleMinInvalidFraction, plane, pool))
        return earliest;

    std::int32_t victim = pickVictim(array_.plane(plane).pool(pool));
    EMMCSIM_ASSERT(victim >= 0, "needy pool without victim");
    sim::Time done = relocateSome(
        plane, pool, flash::BlockId{static_cast<std::uint32_t>(victim)},
        cfg_.idleStepPages, earliest);
    if (done == earliest)
        return earliest;
    stats_.idleTime += done - earliest;
    ++stats_.idleSteps;
    did_work = true;
    return done;
}

} // namespace emmcsim::ftl

