/**
 * @file
 * Event and EventQueue: the discrete-event core of the simulator.
 *
 * The queue is one binary heap of {when, seq, action} entries in a
 * std::vector, ordered by (when, seq): the per-schedule sequence
 * number keeps same-tick events firing in scheduling order (FIFO) and
 * doubles as the event's handle, since it is never reused. Actions
 * are InlineAction (48-byte inline storage, compile-time capture-size
 * check), so scheduling never allocates once the reserved capacity
 * covers the live population (DESIGN.md §11).
 *
 * Replay arrivals never enter this queue: the Simulator merges an
 * ArrivalCursor (sim/arrivals.hh) with the queue front, so the queue
 * holds only device work — a handful of live events on a device that
 * serves one command at a time (DESIGN.md §16).
 */

#ifndef EMMCSIM_SIM_EVENT_HH
#define EMMCSIM_SIM_EVENT_HH

#include <algorithm>
#include <cstdint>
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
 * Handle identifying a scheduled event (used to cancel): its
 * sequence number. Sequence numbers are never reused, so a handle
 * outliving its event can never name a newer one. A
 * default-constructed handle was never issued.
 */
struct EventId
{
    /** Sequence number of a handle that was never issued. */
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    std::uint64_t seq = kNone;

    friend bool operator==(const EventId &, const EventId &) = default;
};

/**
 * A time-ordered queue of events.
 *
 * This class owns no clock of its own; Simulator advances time by
 * popping the earliest event. Cancellation removes the entry eagerly.
 */
class EventQueue
{
  public:
    /** Reserves room for kReservedEvents live events up front. */
    EventQueue() { heap_.reserve(kReservedEvents); }

    /**
     * Schedule an action at an absolute time. The callable is built
     * directly inside the new heap entry; pass either a raw callable
     * or a prebuilt EventAction.
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
        EMMCSIM_DCHECK(when >= lastPopTime_,
                       "event scheduled before the last popped event");
        Entry &e = heap_.emplace_back();
        e.when = when;
        e.seq = nextSeq_++;
        if constexpr (std::is_same_v<std::decay_t<F>, EventAction>)
            e.action = std::forward<F>(fn);
        else
            e.action.emplace(std::forward<F>(fn));
        const EventId id{e.seq};
        std::push_heap(heap_.begin(), heap_.end(), later);
        return id;
    }

    /**
     * Cancel a previously scheduled event, destroying its action.
     *
     * @retval true  The event was pending and is now removed.
     * @retval false The event already fired, was already cancelled,
     *               or the handle was never issued.
     */
    bool cancel(EventId id);

    /** @return true when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** @return number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** @return time of the earliest pending event; kTimeNever if empty. */
    Time
    nextTime() const
    {
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Pop the earliest event without running it. The action is moved
     * out first, so the caller may advance its clock and then run it
     * while it schedules or cancels other events.
     *
     * @param when_out   Receives the event's firing time.
     * @param action_out Receives the event's action.
     * @retval true  An event was popped.
     * @retval false The queue was empty.
     */
    bool pop(Time &when_out, EventAction &action_out);

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return nextSeq_; }

    /** Firing time of the most recently popped event; 0 before any. */
    Time lastPopTime() const { return lastPopTime_; }

    /**
     * Append a description of every internal-consistency violation to
     * @p violations: heap order, sequence numbers that were actually
     * issued, an action in every pending entry, and no pending event
     * before the last pop. Safe to call from inside a firing action.
     *
     * @return number of individual predicates evaluated.
     */
    std::uint64_t auditInvariants(std::vector<std::string> &violations) const;

    /**
     * Test hook: overwrite the last-pop watermark so tests can stage
     * a "pending event older than the last pop" state without going
     * through schedule() (whose DCHECK would reject it). Never call
     * outside tests.
     */
    void corruptLastPopTimeForTest(Time t) { lastPopTime_ = t; }

  private:
    /**
     * Heap capacity reserved at construction: far above the live
     * population of any replay, and small enough to leave the Fig 8
     * sweep's peak RSS where it was (DESIGN.md §11).
     */
    static constexpr std::size_t kReservedEvents = 256;

    /** One pending event. */
    struct Entry
    {
        Time when = 0;
        std::uint64_t seq = 0; ///< schedule order; same-tick FIFO tie-break
        EventAction action;
    };

    /** Heap comparator: std::*_heap keep the earliest entry in front. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    std::vector<Entry> heap_;
    std::uint64_t nextSeq_ = 0;
    Time lastPopTime_ = 0;
};

} // namespace emmcsim::sim

#endif // EMMCSIM_SIM_EVENT_HH
