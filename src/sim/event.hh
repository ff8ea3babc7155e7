/**
 * @file
 * Event and EventQueue: the discrete-event core of the simulator.
 *
 * Design (see DESIGN.md §11):
 *
 *  - **Slot-recycling arena.** Event state lives in 64-byte slots
 *    allocated in fixed-size chunks (stable addresses — growing the
 *    arena never relocates a live action); a fired or cancelled event
 *    returns its slot to a freelist, so peak memory tracks peak *live*
 *    events, not lifetime events. Each slot carries a generation
 *    counter bumped on retirement; an EventId is the pair {slot,
 *    generation}, so a stale handle held across slot reuse fails the
 *    generation match and cancel() safely returns false (no ABA).
 *
 *  - **Allocation-free actions.** Actions are InlineAction (48-byte
 *    inline storage, compile-time capture-size check) built in place
 *    inside the slot by the schedule() template, so the steady
 *    state — scheduling into a recycled slot — performs zero heap
 *    allocations and zero action moves.
 *
 *  - **One 4-ary heap ordered by (time, sequence).** The
 *    per-schedule sequence number keeps same-tick events firing in
 *    scheduling order (FIFO). Cancellation leaves a dead entry behind
 *    (detected by generation mismatch), and the heap is compacted in
 *    place when dead entries dominate.
 *
 * Replay arrivals never enter this queue: the Simulator merges an
 * ArrivalCursor (sim/arrivals.hh) with the queue front, so the queue
 * holds only device work — a handful of live events on a device that
 * serves one command at a time.
 */

#ifndef EMMCSIM_SIM_EVENT_HH
#define EMMCSIM_SIM_EVENT_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/action.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace emmcsim::sim {

/** Callable body of a scheduled event (heap-free; see action.hh). */
using EventAction = InlineAction;

/**
 * Generation-tagged handle identifying a scheduled event (used to
 * cancel). Value-semantic and cheap to copy; a default-constructed
 * handle is never live.
 */
struct EventId
{
    /** Sentinel slot of a handle that was never issued. */
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;

    friend bool
    operator==(const EventId &a, const EventId &b)
    {
        return a.slot == b.slot && a.gen == b.gen;
    }
    friend bool
    operator!=(const EventId &a, const EventId &b)
    {
        return !(a == b);
    }
};

/**
 * A time-ordered queue of events.
 *
 * This class owns no clock of its own; Simulator advances time by
 * popping the earliest event. Cancellation is lazy: cancelled events
 * leave a dead entry behind that is skipped when reached and swept
 * out wholesale once dead entries dominate the heap.
 */
class EventQueue
{
  public:
    /**
     * Allocates the first arena chunk, and heap and freelist room for
     * its slots, up front. A device keeps only a handful of events
     * live, so a whole replay then schedules without touching the
     * allocator. (Measured with glibc on e2ebench's replay_550k setup
     * loop, which builds and drops a full-size HPS device repeatedly:
     * with these blocks allocated before the device's tables, every
     * rebuild reuses the dropped device's table memory, 30k minor
     * faults; allocated at the first schedule instead, every other
     * rebuild faulted it in afresh, 60k.)
     */
    EventQueue();

    /**
     * Schedule an action at an absolute time. The callable is built
     * directly inside an arena slot (no InlineAction temporary); pass
     * either a raw callable or a prebuilt EventAction.
     *
     * @param when Absolute simulated time; must not be in the past
     *             relative to the last popped event (DCHECKed).
     * @param fn   Callback to run when the event fires; its capture
     *             must satisfy InlineAction::fits (compile-time).
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Time when, F &&fn)
    {
        EMMCSIM_ASSERT(when >= 0, "event scheduled at negative time");
        // Documented contract: never behind the simulation clock.
        // Cheap enough to check in debug on every schedule.
        EMMCSIM_DCHECK(when >= lastPopTime_,
                       "event scheduled before the last popped event");

        std::uint32_t slot;
        if (!freelist_.empty()) {
            slot = freelist_.back();
            freelist_.pop_back();
        } else {
            EMMCSIM_ASSERT(slotCount_ < EventId::kNoSlot,
                           "event arena exhausted the slot space");
            // for_overwrite: run the slot constructors (ops/gen) but
            // skip zero-filling 16 KiB of capture storage per chunk.
            if (slotCount_ == chunks_.size() * kChunkSlots)
                chunks_.push_back(
                    std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
            slot = static_cast<std::uint32_t>(slotCount_++);
        }
        Slot &sl = slotAt(slot);
        if constexpr (std::is_same_v<std::decay_t<F>, EventAction>)
            sl.action = std::forward<F>(fn);
        else
            sl.action.emplace(std::forward<F>(fn));

        heapPush(HeapEntry{when, nextSeq_++, slot, sl.gen});
        ++liveCount_;
        if (liveCount_ > highWater_)
            highWater_ = liveCount_;
        ++scheduledCount_;
        return EventId{slot, sl.gen};
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @retval true  The event existed and was cancelled.
     * @retval false The event already fired, was already cancelled,
     *               or the handle is stale (its slot was recycled).
     */
    bool cancel(EventId id);

    /** @return true when no live events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** @return number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return liveCount_; }

    /** @return time of the earliest live event; kTimeNever if empty. */
    Time
    nextTime() const
    {
        dropDeadFront();
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Pop the earliest live event without running it (the caller
     * advances its clock first, then invokes the action).
     *
     * @param when_out   Receives the event's firing time.
     * @param action_out Receives the event's action.
     * @retval true  An event was popped.
     * @retval false The queue was empty.
     */
    bool pop(Time &when_out, EventAction &action_out);

    /**
     * Pop the earliest live event and run it in place (the simulator
     * hot loop; avoids moving the action out of its slot).
     *
     * @p preInvoke is called with the event's firing time after the
     * event is committed but before its action runs — the caller
     * advances its clock there. The firing event's slot is recycled
     * only after the action returns; the action may freely schedule
     * or cancel other events (slot addresses are chunk-stable), and
     * can no longer cancel itself (its generation is already bumped).
     *
     * @retval true  An event fired.
     * @retval false The queue was empty.
     */
    template <typename PreInvoke>
    bool
    dispatchNext(PreInvoke &&preInvoke)
    {
        dropDeadFront();
        if (heap_.empty())
            return false;
        const HeapEntry e = heap_.front();
        heapPopFront();
        EMMCSIM_DCHECK(e.when >= lastPopTime_, "event popped out of order");
        lastPopTime_ = e.when;
        Slot &sl = slotAt(e.slot);
        ++sl.gen; // a firing event can no longer be cancelled
        EMMCSIM_DCHECK(liveCount_ > 0,
                       "dispatch with zero live events (ledger drift)");
        --liveCount_;
        firing_ = e.slot;
        preInvoke(e.when);
        sl.action();
        sl.action = nullptr; // release captured state eagerly
        firing_ = EventId::kNoSlot;
        freelist_.push_back(e.slot);
        return true;
    }

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return scheduledCount_; }

    /** Firing time of the most recently popped event; 0 before any. */
    Time lastPopTime() const { return lastPopTime_; }

    /** @name Arena statistics (memory accounting).
     *  @{ */

    /** Slots ever created; the arena's memory footprint. */
    std::size_t arenaSlots() const { return slotCount_; }

    /** Most events simultaneously live (peak-RSS proxy). */
    std::size_t arenaHighWater() const { return highWater_; }

    /** Slots currently parked on the freelist. */
    std::size_t freeSlots() const { return freelist_.size(); }

    /**
     * Slots held by an in-flight dispatch (0 or 1): the firing event
     * is no longer live but not yet recycled, so auditors running
     * inside an action must count it separately.
     */
    std::size_t inFlightSlots() const
    {
        return firing_ != EventId::kNoSlot ? 1u : 0u;
    }

    /** Heap entries, live and dead. */
    std::size_t heapEntries() const { return heap_.size(); }

    /** Cancelled-but-unswept heap entries. */
    std::size_t deadHeapEntries() const { return deadEntries_; }

    /** Times the heap was compacted (dead entries swept). */
    std::uint64_t heapCompactions() const { return compactions_; }

    /** @} */

    /**
     * Append a description of every internal-consistency violation to
     * @p violations under the generation-ledger model: slot/freelist
     * conservation, freelist hygiene (no duplicates, no parked
     * actions), exactly one live heap entry per live slot, dead-entry
     * accounting, the 4-ary heap ordering property, and time
     * monotonicity. Safe to call from inside a firing action (device
     * audit hooks do): the in-flight slot is accounted separately.
     *
     * @return number of individual predicates evaluated.
     */
    std::uint64_t auditInvariants(std::vector<std::string> &violations) const;

    /**
     * Test hook: skew the live-event counter so tests can prove
     * auditInvariants() catches bookkeeping drift. Never call outside
     * tests.
     */
    void corruptLiveCountForTest(std::int64_t delta);

    /**
     * Test hook: overwrite the last-pop watermark so tests can stage
     * a "pending event older than the last pop" state without going
     * through schedule() (whose DCHECK would reject it). Never call
     * outside tests.
     */
    void corruptLastPopTimeForTest(Time t) { lastPopTime_ = t; }

  private:
    /** Arena slot: the action plus its current generation. */
    struct Slot
    {
        EventAction action;
        std::uint32_t gen = 0;
    };
    static_assert(sizeof(Slot) == 64,
                  "arena slot must stay one cache line; check "
                  "InlineAction's layout before growing it");

    /** One pending heap entry. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq; ///< schedule order; same-tick FIFO tie-break
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Heap arity. 4 wins over 2 on sift-down cache behaviour. */
    static constexpr std::size_t kArity = 4;

    /** Don't bother compacting heaps smaller than this. */
    static constexpr std::size_t kCompactMin = 64;

    /** Slots per arena chunk (16 KiB chunks of 64-byte slots). */
    static constexpr std::size_t kChunkShift = 8;
    static constexpr std::size_t kChunkSlots = std::size_t{1}
                                               << kChunkShift;

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    Slot &
    slotAt(std::uint32_t i)
    {
        return chunks_[i >> kChunkShift][i & (kChunkSlots - 1)];
    }
    const Slot &
    slotAt(std::uint32_t i) const
    {
        return chunks_[i >> kChunkShift][i & (kChunkSlots - 1)];
    }

    /** @return true when @p e still names a live event. */
    bool
    entryLive(const HeapEntry &e) const
    {
        return e.slot < slotCount_ && slotAt(e.slot).gen == e.gen;
    }

    void
    heapPush(const HeapEntry &e)
    {
        heap_.push_back(e);
        siftUp(heap_.size() - 1);
    }

    // heapPopFront/siftDown are const because nextTime() must be able
    // to shed dead front entries; they touch only mutable members.
    void
    heapPopFront() const
    {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }

    void
    siftUp(std::size_t i)
    {
        const HeapEntry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (!earlier(e, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    void
    siftDown(std::size_t i) const
    {
        const std::size_t n = heap_.size();
        const HeapEntry e = heap_[i];
        while (true) {
            const std::size_t first = i * kArity + 1;
            if (first >= n)
                break;
            const std::size_t last = std::min(first + kArity, n);
            std::size_t best = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            if (!earlier(heap_[best], e))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = e;
    }

    /** Drop dead (cancelled) entries off the heap front. */
    void
    dropDeadFront() const
    {
        while (!heap_.empty() && !entryLive(heap_.front())) {
            heapPopFront();
            EMMCSIM_DCHECK(deadEntries_ > 0,
                           "dead heap entry not accounted for");
            --deadEntries_;
        }
    }

    /** Sweep all dead entries and re-heapify (Floyd build). */
    void compact();

    /** Retire a slot: destroy its action, bump gen, recycle. */
    void retireSlot(std::uint32_t slot);

    mutable std::vector<HeapEntry> heap_;
    mutable std::size_t deadEntries_ = 0;

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::size_t slotCount_ = 0;
    std::vector<std::uint32_t> freelist_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t scheduledCount_ = 0;
    std::size_t liveCount_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t compactions_ = 0;
    Time lastPopTime_ = 0;
    /** Slot whose action is executing in a dispatch, if any. */
    std::uint32_t firing_ = EventId::kNoSlot;
};

} // namespace emmcsim::sim

#endif // EMMCSIM_SIM_EVENT_HH
