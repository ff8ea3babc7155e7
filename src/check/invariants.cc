#include "check/invariants.hh"

#include <utility>

#include "emmc/device.hh"
#include "flash/array.hh"
#include "flash/pool.hh"
#include "ftl/ftl.hh"
#include "ftl/mapping.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace emmcsim::check {

CheckContext::CheckContext(std::string checker)
    : checker_(std::move(checker))
{
}

void
CheckContext::check(bool ok, const std::string &detail)
{
    if (ok)
        pass();
    else
        fail(detail);
}

void
CheckContext::fail(const std::string &detail)
{
    ++checksRun_;
    ++failures_;
    if (violations_.size() < kMaxRecorded)
        violations_.push_back(detail);
}

void
checkMappingBijection(const ftl::Ftl &ftl, CheckContext &ctx)
{
    const ftl::PageMap &map = ftl.map();
    const flash::FlashArray &array = ftl.array();
    const flash::Geometry &geom = array.geometry();
    const auto planes = geom.planeCount();
    const auto pool_count = static_cast<std::uint32_t>(geom.pools.size());

    const auto units =
        static_cast<std::int64_t>(map.logicalUnits());
    for (flash::Lpn lpn{0}; lpn.value() < units; ++lpn) {
        const ftl::MapEntry e = map.lookup(lpn);
        if (!e.mapped()) {
            ctx.pass();
            continue;
        }
        const auto plane = static_cast<std::uint32_t>(e.planeLinear);
        if (plane >= planes || e.pool >= pool_count) {
            ctx.fail("lpn " + std::to_string(lpn.value()) +
                     " maps outside the array (plane " +
                     std::to_string(plane) + ", pool " +
                     std::to_string(e.pool) + ")");
            continue;
        }
        const flash::BlockPool &pool = array.plane(plane).pool(e.pool);
        if (e.ppn.value() >= pool.pageCount() ||
            e.unit >= pool.unitsPerPage()) {
            ctx.fail("lpn " + std::to_string(lpn.value()) +
                     " maps outside its pool (ppn " +
                     std::to_string(e.ppn.value()) + ", unit " +
                     std::to_string(e.unit) + ")");
            continue;
        }
        if (!pool.unitValid(e.ppn, e.unit)) {
            ctx.fail("lpn " + std::to_string(lpn.value()) +
                     " maps to a stale unit (plane " +
                     std::to_string(plane) + ", pool " +
                     std::to_string(e.pool) + ", ppn " +
                     std::to_string(e.ppn.value()) + ", unit " +
                     std::to_string(e.unit) + ")");
            continue;
        }
        const flash::Lpn stored = pool.lpnAt(e.ppn, e.unit);
        if (stored != static_cast<flash::Lpn>(lpn)) {
            ctx.fail("lpn " + std::to_string(lpn.value()) +
                     " maps to a unit holding lpn " +
                     std::to_string(stored.value()));
            continue;
        }
        ctx.pass();
    }
}

void
checkUnitConservation(const ftl::Ftl &ftl, CheckContext &ctx)
{
    const flash::FlashArray &array = ftl.array();
    const flash::Geometry &geom = array.geometry();

    std::uint64_t valid_units = 0;
    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
        for (std::size_t k = 0; k < geom.pools.size(); ++k)
            valid_units += array.plane(pl).pool(k).validUnitCount();
    }
    ctx.check(valid_units == ftl.map().mappedCount(),
              "unit conservation: " + std::to_string(valid_units) +
                  " valid physical units vs " +
                  std::to_string(ftl.map().mappedCount()) +
                  " mapped logical units");
}

void
checkPoolAccounting(const flash::BlockPool &pool,
                    const std::string &label, CheckContext &ctx)
{
    const std::uint32_t ppb = pool.pagesPerBlock();
    const std::uint32_t upp = pool.unitsPerPage();
    const std::int32_t active = pool.activeBlock();

    std::uint32_t free_flags = 0;
    std::uint64_t valid_sum = 0;
    for (std::uint32_t b = 0; b < pool.blockCount(); ++b) {
        const flash::BlockId bid{b};
        const bool is_free = pool.blockFree(bid);
        if (is_free)
            ++free_flags;
        const std::uint32_t wp = pool.writtenPages(bid);
        if (wp > ppb)
            ctx.fail(label + ": block " + std::to_string(b) +
                     " write pointer " + std::to_string(wp) +
                     " beyond pages-per-block");
        else
            ctx.pass();

        const std::uint32_t block_valid = pool.validUnitsInBlock(bid);
        valid_sum += block_valid;
        if (is_free && (wp != 0 || block_valid != 0)) {
            ctx.fail(label + ": free block " + std::to_string(b) +
                     " still holds data (" + std::to_string(wp) +
                     " written pages, " + std::to_string(block_valid) +
                     " valid units)");
        } else {
            ctx.pass();
        }

        // Re-derive the block's valid-unit count from per-page state.
        std::uint32_t derived = 0;
        bool beyond_wp = false;
        bool lpn_bad = false;
        for (std::uint32_t p = 0; p < ppb; ++p) {
            const flash::Ppn ppn = units::blockFirstPage(bid, ppb) + p;
            const std::uint32_t v = pool.validUnitsInPage(ppn);
            derived += v;
            if (p >= wp && v != 0)
                beyond_wp = true;
            if (p < wp || v != 0) {
                for (std::uint32_t u = 0; u < upp; ++u) {
                    if (pool.unitValid(ppn, u) &&
                        pool.lpnAt(ppn, u).value() < 0)
                        lpn_bad = true;
                }
            }
        }
        if (derived != block_valid)
            ctx.fail(label + ": block " + std::to_string(b) +
                     " counter says " + std::to_string(block_valid) +
                     " valid units but pages hold " +
                     std::to_string(derived));
        else
            ctx.pass();
        if (beyond_wp)
            ctx.fail(label + ": block " + std::to_string(b) +
                     " has valid units beyond its write pointer");
        else
            ctx.pass();
        if (lpn_bad)
            ctx.fail(label + ": block " + std::to_string(b) +
                     " has a valid unit without a stored lpn");
        else
            ctx.pass();
    }

    ctx.check(free_flags == pool.freeBlockCount(),
              label + ": free-block counter " +
                  std::to_string(pool.freeBlockCount()) +
                  " disagrees with " + std::to_string(free_flags) +
                  " free flags");
    ctx.check(valid_sum == pool.validUnitCount(),
              label + ": pool valid-unit counter " +
                  std::to_string(pool.validUnitCount()) +
                  " disagrees with per-block sum " +
                  std::to_string(valid_sum));

    if (active >= 0) {
        const auto b = static_cast<std::uint32_t>(active);
        ctx.check(b < pool.blockCount(),
                  label + ": active block out of range");
        if (b < pool.blockCount())
            ctx.check(!pool.blockFree(flash::BlockId{b}),
                      label + ": active block sits on the free list");
    }
    std::uint64_t expect_free =
        static_cast<std::uint64_t>(pool.freeBlockCount()) * ppb;
    if (active >= 0 &&
        static_cast<std::uint32_t>(active) < pool.blockCount()) {
        expect_free += ppb - pool.writtenPages(flash::BlockId{
                                 static_cast<std::uint32_t>(active)});
    }
    ctx.check(pool.freePageCount() == expect_free,
              label + ": freePageCount " +
                  std::to_string(pool.freePageCount()) +
                  " disagrees with derived " +
                  std::to_string(expect_free));
}

void
checkArrayAccounting(const flash::FlashArray &array, CheckContext &ctx)
{
    const flash::Geometry &geom = array.geometry();
    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
        for (std::size_t k = 0; k < geom.pools.size(); ++k) {
            checkPoolAccounting(array.plane(pl).pool(k),
                                "plane " + std::to_string(pl) +
                                    " pool " + std::to_string(k),
                                ctx);
        }
    }
}

void
checkEventQueue(const sim::Simulator &simulator, CheckContext &ctx)
{
    const sim::EventQueue &q = simulator.events();

    std::vector<std::string> violations;
    const std::uint64_t run = q.auditInvariants(violations);
    // auditInvariants counts every predicate; re-split into pass/fail.
    ctx.pass(run - violations.size());
    for (const std::string &v : violations)
        ctx.fail(v);

    const sim::Time next = q.nextTime();
    ctx.check(next == sim::kTimeNever || next >= simulator.now(),
              "simulator clock passed the next pending event");
    // Arrivals fire from the simulator's cursor without being
    // scheduled, so only the rest of the executed count draws on the
    // queue's ever-scheduled ledger.
    ctx.check(simulator.arrivalsFired() <= simulator.executedCount(),
              "more arrivals fired than events executed");
    ctx.check(simulator.executedCount() - simulator.arrivalsFired() +
                      q.size() <=
                  q.scheduledCount(),
              "executed events + pending events exceed the "
              "ever-scheduled count");
}

void
checkDeviceLifecycle(const emmc::EmmcDevice &device, CheckContext &ctx)
{
    const emmc::DeviceStats &st = device.stats();

    ctx.check(st.readRequests + st.writeRequests == st.requests,
              "read + write request counters do not sum to total");
    ctx.check(st.noWaitRequests <= st.requests,
              "more NoWait requests than requests");
    ctx.check(st.responseMs.count() <= st.requests,
              "more completions than submissions");
    ctx.check(st.serviceMs.count() == st.responseMs.count() &&
                  st.waitMs.count() == st.responseMs.count(),
              "per-request latency series diverged in length");
    ctx.check(st.queueDepthAtArrival.count() == st.requests,
              "queue-depth series missed an arrival");
    ctx.check(st.busyTime >= 0, "negative device busy time");
    ctx.check(device.busy() || device.queueDepth() == 0,
              "idle device holds queued requests");
}

void
checkPhaseConservation(const emmc::EmmcDevice &device, CheckContext &ctx)
{
    const emmc::DeviceStats &st = device.stats();
    ctx.check(st.ledgerViolations == 0,
              std::to_string(st.ledgerViolations) +
                  " completed request(s) whose phase ledger does not "
                  "sum to finish - arrival");
}

void
checkRetiredBlocks(const ftl::Ftl &ftl, CheckContext &ctx)
{
    const flash::FlashArray &array = ftl.array();
    const flash::Geometry &geom = array.geometry();
    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
        for (std::size_t k = 0; k < geom.pools.size(); ++k) {
            const flash::BlockPool &pool = array.plane(pl).pool(k);
            const std::string label = "plane " + std::to_string(pl) +
                                      " pool " + std::to_string(k);
            std::uint32_t flagged = 0;
            for (std::uint32_t b = 0; b < pool.blockCount(); ++b) {
                const flash::BlockId bid{b};
                if (!pool.blockRetired(bid)) {
                    ctx.pass();
                    continue;
                }
                ++flagged;
                const std::string where =
                    label + ": retired block " + std::to_string(b);
                ctx.check(!pool.blockFree(bid),
                          where + " sits on the free list");
                ctx.check(pool.activeBlock() !=
                              static_cast<std::int32_t>(b),
                          where + " is the active block");
                ctx.check(pool.writtenPages(bid) ==
                              pool.pagesPerBlock(),
                          where + " is not sealed (allocatable pages "
                                  "remain)");
                ctx.check(pool.validUnitsInBlock(bid) == 0,
                          where + " still holds valid data");
                ctx.check(!pool.blockSuspect(bid),
                          where + " is still flagged suspect");
            }
            ctx.check(flagged == pool.retiredBlockCount(),
                      label + ": retired counter " +
                          std::to_string(pool.retiredBlockCount()) +
                          " disagrees with " + std::to_string(flagged) +
                          " retired flags");
        }
    }
}

void
checkSpareAccounting(const ftl::Ftl &ftl, CheckContext &ctx)
{
    const ftl::BadBlockManager &bbm = ftl.badBlocks();
    const flash::FlashArray &array = ftl.array();
    const flash::Geometry &geom = array.geometry();

    std::uint64_t pool_total = 0;
    bool any_exhausted = false;
    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
        for (std::uint32_t k = 0;
             k < static_cast<std::uint32_t>(geom.pools.size()); ++k) {
            const std::uint32_t in_pool =
                array.plane(pl).pool(k).retiredBlockCount();
            const std::uint32_t in_bbm = bbm.retiredCount(pl, k);
            pool_total += in_pool;
            ctx.check(in_pool == in_bbm,
                      "plane " + std::to_string(pl) + " pool " +
                          std::to_string(k) + ": pool retired " +
                          std::to_string(in_pool) +
                          " blocks but the bad-block table recorded " +
                          std::to_string(in_bbm));
            if (in_bbm >= bbm.config().spareBlocksPerPlanePool)
                any_exhausted = true;
        }
    }

    ctx.check(bbm.totalRetired() == pool_total,
              "bad-block table length " +
                  std::to_string(bbm.totalRetired()) +
                  " disagrees with " + std::to_string(pool_total) +
                  " retired blocks across the pools");

    for (const ftl::BadBlockEntry &e : bbm.table()) {
        const bool in_range =
            e.planeLinear < geom.planeCount() &&
            e.pool < geom.pools.size() &&
            e.block <
                array.plane(e.planeLinear).pool(e.pool).blockCount();
        if (!in_range) {
            ctx.fail("bad-block table entry outside the array (plane " +
                     std::to_string(e.planeLinear) + ", pool " +
                     std::to_string(e.pool) + ", block " +
                     std::to_string(e.block) + ")");
            continue;
        }
        ctx.check(array.plane(e.planeLinear)
                      .pool(e.pool)
                      .blockRetired(flash::BlockId{e.block}),
                  "bad-block table names block " +
                      std::to_string(e.block) + " of plane " +
                      std::to_string(e.planeLinear) + " pool " +
                      std::to_string(e.pool) +
                      " which is not retired");
    }

    // Spare exhaustion must imply read-only; the converse holds unless
    // the FTL separately declared space exhaustion.
    if (any_exhausted)
        ctx.check(bbm.readOnly(),
                  "a plane-pool exhausted its spares but the device "
                  "still accepts writes");
    else
        ctx.pass();
    if (bbm.readOnlyCause() == ftl::ReadOnlyCause::SpareExhaustion)
        ctx.check(any_exhausted,
                  "device is read-only for spare exhaustion but no "
                  "plane-pool spent its budget");
    else
        ctx.pass();
}

void
checkJournalAccounting(const ftl::Ftl &ftl, CheckContext &ctx)
{
    const ftl::MetaJournal &j = ftl.journal();
    const ftl::JournalStats &st = j.stats();

    const std::uint64_t records = st.writeRecords + st.relocRecords +
                                  st.eraseRecords + st.retireRecords;
    ctx.check(records == j.seq(),
              "journal: record counters sum to " +
                  std::to_string(records) + " but the sequence is " +
                  std::to_string(j.seq()));
    ctx.check(j.durableSeq() <= j.seq(),
              "journal: durable sequence leads the issued sequence");
    ctx.check(j.seq() - j.durableSeq() == j.openPageRecords(),
              "journal: durable lag " +
                  std::to_string(j.seq() - j.durableSeq()) +
                  " records disagrees with the open page holding " +
                  std::to_string(j.openPageRecords()));
    ctx.check(j.openPageRecords() < j.config().recordsPerPage,
              "journal: open page holds a full page of records "
              "without flushing");

    const std::uint64_t upr = j.config().recordsPerPage;
    const std::uint64_t expect_ckpt =
        (ftl.map().logicalUnits() + upr - 1) / upr;
    ctx.check(j.checkpointPages() == expect_ckpt,
              "journal: checkpoint spans " +
                  std::to_string(j.checkpointPages()) +
                  " pages but the mapping table needs " +
                  std::to_string(expect_ckpt));
}

void
checkPageSeqConsistency(const ftl::Ftl &ftl, CheckContext &ctx)
{
    const ftl::MetaJournal &j = ftl.journal();
    const flash::FlashArray &array = ftl.array();
    const flash::Geometry &geom = array.geometry();

    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl) {
        for (std::size_t k = 0; k < geom.pools.size(); ++k) {
            const flash::BlockPool &pool = array.plane(pl).pool(k);
            const std::string label = "plane " + std::to_string(pl) +
                                      " pool " + std::to_string(k);
            const std::uint32_t ppb = pool.pagesPerBlock();
            for (std::uint64_t p = 0; p < pool.pageCount(); ++p) {
                const flash::Ppn ppn{p};
                const std::uint64_t seq = pool.pageSeq(ppn);
                const std::string where =
                    label + ": page " + std::to_string(p);
                if (seq > j.seq()) {
                    ctx.fail(where + " stamped with sequence " +
                             std::to_string(seq) +
                             " beyond the journal's " +
                             std::to_string(j.seq()));
                    continue;
                }
                if (pool.validUnitsInPage(ppn) > 0 && seq == 0) {
                    ctx.fail(where + " holds valid units but was "
                                     "never journaled");
                    continue;
                }
                if (seq != 0) {
                    const flash::BlockId bid =
                        units::pageToBlock(ppn, ppb);
                    if (units::pageIndexInBlock(ppn, ppb) >=
                        pool.writtenPages(bid)) {
                        ctx.fail(where + " is stamped beyond its "
                                         "block's write pointer");
                        continue;
                    }
                }
                ctx.pass();
            }
        }
    }
}

void
checkTrace(const trace::Trace &trace, std::uint64_t logical_units,
           CheckContext &ctx)
{
    sim::Time prev_arrival = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const trace::TraceRecord &r = trace[i];
        const std::string where =
            "record " + std::to_string(i) + " of \"" + trace.name() +
            "\"";

        if (r.arrival < prev_arrival)
            ctx.fail(where + ": arrival went backwards");
        else
            ctx.pass();
        prev_arrival = r.arrival;

        if (r.sizeBytes.value() == 0 ||
            !units::isUnitAligned(r.sizeBytes))
            ctx.fail(where + ": size is not a positive 4KB multiple");
        else
            ctx.pass();

        if (!units::isUnitAligned(r.lbaSector))
            ctx.fail(where + ": LBA is not 4KB-aligned");
        else
            ctx.pass();

        if (logical_units != 0) {
            const auto first =
                static_cast<std::uint64_t>(r.firstUnit().value());
            if (first + r.sizeUnits() > logical_units)
                ctx.fail(where + ": request past logical capacity");
            else
                ctx.pass();
        }

        if (r.serviceStart != sim::kTimeNever ||
            r.finish != sim::kTimeNever) {
            if (!r.replayed())
                ctx.fail(where + ": half-filled replay timestamps");
            else if (r.arrival > r.serviceStart ||
                     r.serviceStart > r.finish)
                ctx.fail(where + ": BIOtracer timestamps out of order "
                                 "(arrival <= service <= finish)");
            else
                ctx.pass();
        }
    }
}

} // namespace emmcsim::check
