#include "ftl/ftl.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emmcsim::ftl {

std::uint64_t
Ftl::exportedUnits(const flash::FlashArray &array, double op_ratio)
{
    if (op_ratio < 0.0 || op_ratio >= 1.0)
        sim::fatal("over-provisioning ratio must be in [0, 1)");
    auto raw = array.geometry().capacityUnits();
    return static_cast<std::uint64_t>(
        static_cast<double>(raw) * (1.0 - op_ratio));
}

Ftl::Ftl(flash::FlashArray &array, const FtlConfig &cfg)
    : array_(array),
      cfg_(cfg),
      split_(array.geometry()),
      map_(exportedUnits(array, cfg.opRatio)),
      alloc_(cfg.alloc, array.geometry().planeCount(),
             static_cast<std::uint32_t>(array.geometry().pools.size()),
             array.geometry().dieCount()),
      bbm_(array.geometry().planeCount(),
           static_cast<std::uint32_t>(array.geometry().pools.size()),
           cfg.bbm),
      journal_(map_, cfg.journal),
      gc_(array, map_, cfg.gc, bbm_, journal_)
{
}

WriteResult
Ftl::writeGroup(std::uint32_t pool, flash::Lpn first, std::uint32_t count,
                sim::Time earliest)
{
    const auto &geom = array_.geometry();
    EMMCSIM_ASSERT(pool < geom.pools.size(), "writeGroup pool range");
    const std::uint32_t upp = geom.pools[pool].unitsPerPage();
    EMMCSIM_ASSERT(count >= 1 && count <= upp,
                   "writeGroup size must be 1..unitsPerPage");

    // Graceful degradation: a read-only device (spares or space
    // exhausted) rejects writes with a structured error; existing data
    // stays mapped and readable.
    if (bbm_.readOnly()) {
        ++stats_.rejectedWrites;
        return WriteResult{earliest, false, {}};
    }

    // A plane-pool can serve the write if it has pages beyond the GC
    // reserve or space it can reclaim. A pool whose planes are all
    // exhausted (live data exceeds the pool's share — possible under
    // HPS when one size class dominates) overflows into another pool;
    // the paper never hits this because it replays on new devices.
    const std::uint64_t reserve_blocks = cfg_.gc.hardFreeBlocks;
    auto plane_viable = [&](std::uint32_t pl, std::uint32_t k) {
        const auto &bp = array_.plane(pl).pool(k);
        const std::uint64_t reserve =
            reserve_blocks * bp.pagesPerBlock();
        return bp.freePageCount() > reserve || gc_.canReclaim(pl, k);
    };

    const std::uint32_t planes = geom.planeCount();
    std::uint32_t plane = alloc_.nextPlane(pool, first);
    std::uint32_t tried = 0;
    sim::Time t = earliest;
    bool placed = false;
    while (tried < planes) {
        if (plane_viable(plane, pool)) {
            t = gc_.ensureFreePage(plane, pool, earliest);
            // Erase failures during the GC round can leave the plane
            // with nothing allocatable after all; move on then.
            if (array_.plane(plane).pool(pool).hasFreePage()) {
                placed = true;
                break;
            }
        }
        plane = (plane + 1) % planes;
        ++tried;
    }
    if (!placed) {
        // Overflow: redirect to another pool that still has room.
        for (std::uint32_t k = 0; k < geom.pools.size(); ++k) {
            if (k == pool)
                continue;
            bool viable = false;
            for (std::uint32_t pl = 0; pl < planes && !viable; ++pl)
                viable = plane_viable(pl, k);
            if (!viable)
                continue;
            ++stats_.overflowRedirects;
            const std::uint32_t other_upp =
                geom.pools[k].unitsPerPage();
            WriteResult out{earliest, true, {}};
            for (std::uint32_t i = 0; i < count; i += other_upp) {
                WriteResult w =
                    writeGroup(k, first + i, std::min(other_upp, count - i),
                               earliest);
                // The chunk finishing last is the critical chain; its
                // breakdown is the group's breakdown (conservation:
                // it sums to out.done − earliest by induction).
                if (w.done > out.done) {
                    out.done = w.done;
                    out.chain = w.chain;
                }
                out.accepted = out.accepted && w.accepted;
            }
            return out;
        }
        bbm_.declareSpaceExhausted();
        ++stats_.rejectedWrites;
        return WriteResult{earliest, false, {}};
    }

    auto &bp = array_.plane(plane).pool(pool);
    flash::Ppn ppn = bp.allocatePage();
    flash::OpResult res =
        array_.program(flash::pageAddr(geom, plane, pool, ppn), t);

    // Attribution critical chain: GC held the write until t, the
    // first program decomposes into channel wait/transfer and array
    // wait/program, and any relocation below lumps into one phase.
    // The pieces sum exactly to done − earliest (DESIGN.md §14).
    FlashBreakdown chain;
    chain.gcStall = t - earliest;
    chain.busWait = res.start - t;
    chain.busXfer = res.busTime;
    chain.nandWait = (res.done - res.start) - res.busTime - res.cellTime;
    chain.nandCell = res.cellTime;
    const sim::Time first_done = res.done;

    // Program-failure relocation: flag the failed block suspect, seal
    // it (no further page may land there; the GC scrub path drains and
    // retires it) and re-issue the page to a fresh block.
    std::uint32_t attempts = 0;
    while (res.status == flash::OpStatus::ProgramFail) {
        bbm_.noteProgramFailure();
        const flash::BlockId bad =
            units::pageToBlock(ppn, bp.pagesPerBlock());
        bp.markSuspect(bad);
        bp.sealBlock(bad);
        EMMCSIM_ASSERT(++attempts <= 16,
                       "host-write relocation not converging under "
                       "program failures");
        t = gc_.ensureFreePage(plane, pool, res.done);
        if (!bp.hasFreePage()) {
            // Nowhere left to re-issue the page: degrade to read-only
            // with the old data still mapped (nothing was invalidated
            // yet), rather than losing the write silently.
            bbm_.declareSpaceExhausted();
            ++stats_.rejectedWrites;
            chain.reloc = res.done - first_done;
            return WriteResult{res.done, false, chain};
        }
        ppn = bp.allocatePage();
        res = array_.program(flash::pageAddr(geom, plane, pool, ppn), t);
        ++stats_.relocatedPrograms;
        bbm_.noteRelocatedProgram();
    }

    // The mapping moves only after the program succeeded, so every
    // rejection path above leaves the old mapping fully intact.
    placeUnits(plane, pool, ppn, first, count);

    // Remember the program so a power cut landing before res.done can
    // tear exactly this page (the write was never acknowledged).
    lastHostProgram_.valid = true;
    lastHostProgram_.planeLinear = plane;
    lastHostProgram_.pool = pool;
    lastHostProgram_.ppn = ppn;
    lastHostProgram_.done = res.done;

    stats_.hostUnitsWritten += count;
    stats_.hostBytesConsumed += geom.pools[pool].pageBytes;
    ++stats_.hostProgramOps;
    chain.reloc = res.done - first_done;
    return WriteResult{res.done, true, chain};
}

ReadResult
Ftl::readUnits(flash::Lpn start, std::uint32_t n, sim::Time earliest)
{
    EMMCSIM_ASSERT(start.value() >= 0, "readUnits negative lpn");
    EMMCSIM_ASSERT(static_cast<std::uint64_t>(start.value()) + n <=
                       map_.logicalUnits(),
                   "readUnits past logical capacity");
    if (n == 0)
        return ReadResult{earliest, 0, {}};

    const auto &geom = array_.geometry();
    sim::Time done = earliest;
    std::uint32_t uncorrectable = 0;

    // Attribution critical chain: the page read finishing last (ties
    // keep the first) determines the request's flash time; decompose
    // exactly that op into array wait, sensing (base + retry ladder)
    // and channel wait/transfer. The pieces sum to done − earliest.
    FlashBreakdown chain;
    auto charge = [&](const flash::OpResult &res) {
        if (res.done <= done)
            return;
        done = res.done;
        chain = FlashBreakdown{};
        chain.nandWait = res.start - earliest;
        chain.nandCell = res.cellTime - res.retryTime;
        chain.retry = res.retryTime;
        chain.busWait =
            (res.done - res.busTime) - (res.start + res.cellTime);
        chain.busXfer = res.busTime;
    };

    // Time a run of unmapped units as split_ would have laid it
    // out: one page read per page group, at a deterministic location
    // in the group's pool.
    auto read_unmapped_run = [&](flash::Lpn run_start,
                                 std::uint32_t run_len) {
        split_.split(run_start, run_len, [&](const PageGroup &g) {
            const std::uint32_t upp = geom.pools[g.pool].unitsPerPage();
            const std::uint32_t ppb = geom.poolPagesPerBlock(g.pool);
            const std::uint64_t pool_pages =
                static_cast<std::uint64_t>(
                    geom.pools[g.pool].blocksPerPlane) *
                ppb;
            const std::uint64_t pseudo =
                static_cast<std::uint64_t>(g.first.value()) / upp;
            // Spread consecutive pseudo pages over dies first,
            // mirroring the die-interleaved order the write allocator
            // would have used to lay this data out.
            const std::uint32_t dies = geom.dieCount();
            const auto die = static_cast<std::uint32_t>(pseudo % dies);
            const auto plane_in_die = static_cast<std::uint32_t>(
                (pseudo / dies) % geom.planesPerDie);
            const flash::PageAddr a = flash::pageAddr(
                geom, die * geom.planesPerDie + plane_in_die, g.pool,
                flash::Ppn{pseudo % pool_pages});
            flash::OpResult res =
                array_.read(a, earliest, units::unitsToBytes(g.count));
            if (res.status == flash::OpStatus::Uncorrectable)
                ++uncorrectable;
            charge(res);
            ++stats_.hostReadOps;
        });
    };

    // Group mapped units by the physical page that holds them;
    // accumulate unmapped units into maximal runs. The groups are
    // walked below to issue flash reads, so their order feeds the
    // fault-injector RNG and the request tracer: keep them in
    // first-touch order. A page's units are usually adjacent, so the
    // search starts at the newest group.
    readGroups_.clear();
    flash::Lpn run_start{0};
    std::uint32_t run_len = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        flash::Lpn lpn = start + i;
        const MapEntry e = map_.lookup(lpn);
        if (!e.mapped()) {
            if (run_len == 0)
                run_start = lpn;
            ++run_len;
            continue;
        }
        if (run_len > 0) {
            read_unmapped_run(run_start, run_len);
            run_len = 0;
        }
        const auto plane = static_cast<std::uint32_t>(e.planeLinear);
        auto it = std::find_if(
            readGroups_.rbegin(), readGroups_.rend(),
            [&](const ReadGroup &g) {
                return g.ppn == e.ppn && g.plane == plane &&
                       g.pool == e.pool;
            });
        if (it == readGroups_.rend())
            readGroups_.push_back(ReadGroup{plane, e.pool, e.ppn, 1});
        else
            ++it->units;
    }
    if (run_len > 0)
        read_unmapped_run(run_start, run_len);

    for (const ReadGroup &g : readGroups_) {
        flash::OpResult res =
            array_.read(flash::pageAddr(geom, g.plane, g.pool, g.ppn),
                        earliest, units::unitsToBytes(g.units));
        if (res.status == flash::OpStatus::Uncorrectable)
            ++uncorrectable;
        charge(res);
        ++stats_.hostReadOps;
    }
    stats_.hostUnitsRead += n;
    stats_.uncorrectableReads += uncorrectable;
    return ReadResult{done, uncorrectable, chain};
}

bool
Ftl::installGroup(std::uint32_t pool, flash::Lpn first, std::uint32_t count)
{
    const auto &geom = array_.geometry();
    EMMCSIM_ASSERT(pool < geom.pools.size(), "installGroup pool range");
    const std::uint32_t upp = geom.pools[pool].unitsPerPage();
    EMMCSIM_ASSERT(count >= 1 && count <= upp,
                   "installGroup size must be 1..unitsPerPage");

    // Find a plane with space, starting from the allocator's choice.
    // The GC free-block reserve is never consumed: garbage collection
    // needs at least hardFreeBlocks erased blocks to relocate into.
    const std::uint32_t planes = geom.planeCount();
    std::uint32_t plane = alloc_.nextPlane(pool, first);
    std::uint32_t tried = 0;
    auto has_room = [&](const flash::BlockPool &bp) {
        const std::uint64_t reserve =
            static_cast<std::uint64_t>(cfg_.gc.hardFreeBlocks) *
            bp.pagesPerBlock();
        return bp.freePageCount() > reserve;
    };
    while (!has_room(array_.plane(plane).pool(pool))) {
        plane = (plane + 1) % planes;
        if (++tried >= planes)
            return false; // pool full: aged devices stay full here
    }

    placeUnits(plane, pool, array_.plane(plane).pool(pool).allocatePage(),
               first, count);
    return true;
}

void
Ftl::placeUnits(std::uint32_t plane, std::uint32_t pool, flash::Ppn ppn,
                flash::Lpn first, std::uint32_t count)
{
    // Stale out any previous locations of these units first.
    for (std::uint32_t u = 0; u < count; ++u) {
        const MapEntry old = map_.lookup(first + u);
        if (old.mapped()) {
            array_.plane(static_cast<std::uint32_t>(old.planeLinear))
                .pool(old.pool)
                .invalidateUnit(old.ppn, old.unit);
        }
    }
    auto &bp = array_.plane(plane).pool(pool);
    for (std::uint32_t u = 0; u < count; ++u) {
        bp.setUnit(ppn, u, first + u);
        MapEntry e;
        e.planeLinear = static_cast<std::int32_t>(plane);
        e.pool = static_cast<std::uint16_t>(pool);
        e.ppn = ppn;
        e.unit = static_cast<std::uint16_t>(u);
        bp.stampPageSeq(ppn, journal_.recordWrite(first + u, e));
    }
}

void
Ftl::flushBarrier()
{
    journal_.flushBarrier();
}

sim::Time
Ftl::idleGcStep(sim::Time now, bool &did_work)
{
    return gc_.idleStep(now, did_work);
}

template <typename Self, typename IO>
void
Ftl::fields(Self &self, IO &io)
{
    io.nested(self.map_);
    io.nested(self.alloc_);
    io.nested(self.bbm_);
    io.nested(self.journal_);
    io.nested(self.gc_);
    io.pod(self.stats_);
    io.pod(self.lastHostProgram_);
}

void
Ftl::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
Ftl::load(core::BinReader &r)
{
    fields(*this, r);
}

} // namespace emmcsim::ftl
