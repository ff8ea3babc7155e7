/**
 * @file
 * Invariant checkers: cross-layer consistency predicates over the
 * simulator's bookkeeping.
 *
 * Every figure the repo reproduces rests on counters no single module
 * can validate alone: the FTL map and the flash pools must agree on
 * which physical unit holds which logical page, free-space accounting
 * must survive thousands of GC rounds, and the event queue must never
 * run time backwards. Each checker here re-derives one such invariant
 * from first principles (raw per-unit state, not the cached counters)
 * and reports every disagreement. Checkers are pure observers: they
 * never mutate the structures they inspect.
 */

#ifndef EMMCSIM_CHECK_INVARIANTS_HH
#define EMMCSIM_CHECK_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace emmcsim::sim {
class Simulator;
}
namespace emmcsim::flash {
class BlockPool;
class FlashArray;
}
namespace emmcsim::ftl {
class Ftl;
}
namespace emmcsim::emmc {
class EmmcDevice;
}
namespace emmcsim::trace {
class Trace;
}

namespace emmcsim::check {

/**
 * Collects the outcome of one checker run: how many predicates were
 * evaluated and which failed. Violation descriptions are capped (the
 * counter keeps counting) so a badly corrupted structure cannot flood
 * memory with millions of identical messages.
 */
class CheckContext
{
  public:
    /** @param checker Name of the checker filling this context. */
    explicit CheckContext(std::string checker);

    /** Record one evaluated predicate; keep @p detail when it fails. */
    void check(bool ok, const std::string &detail);

    /**
     * Cheap success path for hot loops: count @p n passed predicates
     * without building any message.
     */
    void pass(std::uint64_t n = 1) { checksRun_ += n; }

    /** Record one failed predicate (counts as run). */
    void fail(const std::string &detail);

    const std::string &checker() const { return checker_; }

    /** Predicates evaluated so far. */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Predicates that failed (may exceed violations().size()). */
    std::uint64_t failures() const { return failures_; }

    /** Recorded failure descriptions (first kMaxRecorded). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** Cap on recorded violation descriptions per context. */
    static constexpr std::size_t kMaxRecorded = 16;

  private:
    std::string checker_;
    std::uint64_t checksRun_ = 0;
    std::uint64_t failures_ = 0;
    std::vector<std::string> violations_;
};

/**
 * LPN -> PPN bijection. Forward: every mapped logical unit must point
 * at a pool unit that is valid and stores exactly that LPN. Reverse
 * (with checkUnitConservation): the number of valid physical units
 * equals the number of mapped logical units, so the forward-checked
 * map is onto and no orphaned valid unit exists.
 */
void checkMappingBijection(const ftl::Ftl &ftl, CheckContext &ctx);

/**
 * Valid/invalid unit-count conservation: the sum of per-pool valid
 * unit counters across the array equals the page map's mapped count.
 * A mismatch means an overwrite or GC relocation lost or duplicated a
 * unit's validity.
 */
void checkUnitConservation(const ftl::Ftl &ftl, CheckContext &ctx);

/**
 * Pool free-page and validity accounting, recomputed from raw
 * per-block state: free-list flags vs the free counter, the derived
 * freePageCount formula, per-block valid sums vs per-page bitmask
 * popcounts vs the pool-wide counter, write pointers in range, no
 * valid unit beyond a block's write pointer, and free blocks holding
 * no data.
 *
 * @param label Prefix for violation messages (e.g. "plane 3 pool 1").
 */
void checkPoolAccounting(const flash::BlockPool &pool,
                         const std::string &label, CheckContext &ctx);

/** checkPoolAccounting over every plane-pool of @p array. */
void checkArrayAccounting(const flash::FlashArray &array,
                          CheckContext &ctx);

/**
 * Event-queue integrity: EventQueue::auditInvariants (heap order,
 * issued sequence numbers, armed entries, nothing pending before the
 * last pop), the clock never passing the next pending event, and
 * executed + pending events reconciled against the events ever
 * scheduled plus the arrivals fired.
 */
void checkEventQueue(const sim::Simulator &simulator, CheckContext &ctx);

/**
 * Device request bookkeeping: read/write splits summing to the
 * request counter, completion statistics never exceeding submissions,
 * an idle device holding no queued requests, and non-negative busy
 * time.
 */
void checkDeviceLifecycle(const emmc::EmmcDevice &device,
                          CheckContext &ctx);

/**
 * Latency-attribution conservation: the device increments
 * DeviceStats::ledgerViolations whenever a completed request's phase
 * ledger (emmc/phases.hh) does not sum exactly to finish − arrival.
 * The counter must stay zero — the attribution report and
 * `emmcsim_cli explain` are only trustworthy if every nanosecond of
 * every response time is accounted to exactly one phase.
 */
void checkPhaseConservation(const emmc::EmmcDevice &device,
                            CheckContext &ctx);

/**
 * Retired-block hygiene: every block the pools flag retired is off the
 * free list, not the active block, fully sealed (write pointer at the
 * block end, so the allocator can never hand out a page in it) and
 * holds no valid unit; conversely the pools' retired counters match
 * the per-block flags. Together with the mapping bijection this proves
 * relocation moved every live unit out before retirement.
 */
void checkRetiredBlocks(const ftl::Ftl &ftl, CheckContext &ctx);

/**
 * Spare-pool conservation: the bad-block manager's per-plane-pool
 * retirement counters equal the pools' retired-block counts, the
 * grown-bad-block table length equals the total, every table entry
 * names a block that really is retired, and the read-only transition
 * fires exactly when some plane-pool exhausted its spare budget (or
 * space exhaustion was declared).
 */
void checkSpareAccounting(const ftl::Ftl &ftl, CheckContext &ctx);

/**
 * Metadata-journal accounting (DESIGN.md §13): record counters sum to
 * the sequence number, the durable sequence never leads the issued
 * one and trails it by exactly the open-page record count, the open
 * page never holds a full page's worth of records, and the checkpoint
 * size matches the mapping-table footprint. These hold at every
 * instant — including immediately after power-up recovery, which must
 * leave the journal freshly checkpointed.
 */
void checkJournalAccounting(const ftl::Ftl &ftl, CheckContext &ctx);

/**
 * Out-of-band page-sequence consistency: every page holding a valid
 * unit carries a nonzero program-sequence stamp (it passed through
 * the journal gateway), no stamp exceeds the journal's issued
 * sequence, and stamped pages lie below their block's write pointer.
 * Recovery's winner election depends on exactly these properties.
 */
void checkPageSeqConsistency(const ftl::Ftl &ftl, CheckContext &ctx);

/**
 * Trace record validation: monotone non-decreasing arrivals, nonzero
 * 4KB-multiple sizes, unit-aligned LBAs (in range of the device when
 * @p logical_units is nonzero), and — for replayed records — the
 * BIOtracer step ordering arrival <= serviceStart <= finish.
 *
 * @param logical_units Device capacity in 4KB units; 0 skips the
 *        range check (traces may legitimately exceed one device and
 *        get folded by the replayer).
 */
void checkTrace(const trace::Trace &trace, std::uint64_t logical_units,
                CheckContext &ctx);

} // namespace emmcsim::check

#endif // EMMCSIM_CHECK_INVARIANTS_HH
