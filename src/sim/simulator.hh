/**
 * @file
 * Simulator: the event loop and the global simulated clock.
 */

#ifndef EMMCSIM_SIM_SIMULATOR_HH
#define EMMCSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/arrivals.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace emmcsim::sim {

/**
 * Discrete-event simulator.
 *
 * Components schedule callbacks on the simulator and read the current
 * time with now(). Time only advances inside run()/runUntil() as events
 * are popped in timestamp order, merged with the attached arrival
 * cursor (if any).
 */
class Simulator
{
  public:
    Simulator() = default;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule an action at an absolute time (>= now()). Forwards the
     * raw callable to the event queue, which builds it in place
     * inside the new heap entry (no temporaries on the hot path).
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Time when, F &&action)
    {
        EMMCSIM_ASSERT(when >= now_, "event scheduled in the past");
        return events_.schedule(when, std::forward<F>(action));
    }

    /** Schedule an action @p delay after now(). */
    template <typename F>
    EventId
    scheduleAfter(Time delay, F &&action)
    {
        EMMCSIM_ASSERT(delay >= 0, "negative event delay");
        return events_.schedule(now_ + delay, std::forward<F>(action));
    }

    /** Cancel a scheduled event; see EventQueue::cancel. */
    bool cancel(EventId id) { return events_.cancel(id); }

    /**
     * Merge @p arrivals into run()/runUntil() until detached with
     * null; the cursor must outlive its attachment. At a tied tick an
     * arrival fires before every queued event. Arrivals count in
     * executedCount() and trigger post-event hooks like events do.
     */
    void setArrivals(ArrivalCursor *arrivals) { arrivals_ = arrivals; }

    /** Arrivals fired from attached cursors so far. */
    std::uint64_t arrivalsFired() const { return arrivalsFired_; }

    /**
     * Set the clock to @p when without running events — the snapshot
     * restore path uses this to resume a fresh simulator at the image's
     * capture time before replaying the remaining arrivals. Only
     * legal with nothing pending: jumping the clock with events
     * pending would reorder them against their timestamps.
     */
    void
    restoreClock(Time when)
    {
        EMMCSIM_ASSERT(!pending(), "restoreClock with events pending");
        EMMCSIM_ASSERT(when >= now_, "clock may only move forward");
        now_ = when;
    }

    /**
     * Run until the event queue drains.
     * @return number of events executed.
     */
    std::uint64_t run();

    /**
     * Run until the queue drains or the clock passes @p deadline.
     * Events at exactly @p deadline still fire.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Time deadline);

    /** @return true if events or attached arrivals remain. */
    bool pending() const { return nextEventTime() != kTimeNever; }

    /** Time of the next pending event or arrival; kTimeNever if none. */
    Time nextEventTime() const;

    /** Events executed so far, arrivals included. */
    std::uint64_t executedCount() const { return executed_; }

    /** Read-only view of the event queue (audit support). */
    const EventQueue &events() const { return events_; }

    /** Hook invoked from the event loop (audit / observability).
     *  Fires once per @p interval events, never per event, so the
     *  type-erasure cost stays off the hot path. */
    // emmclint: allow(event-path-alloc)
    using PostEventHook = std::function<void(const Simulator &)>;

    /** Identifies one registered post-event hook. */
    using HookId = std::uint64_t;

    /**
     * Register a hook called after every @p interval executed events.
     * Multiple independent hooks may coexist (the invariant auditor
     * and the metrics sampler each own one); they fire in
     * registration order. Hooks must not mutate the simulator.
     *
     * @return Handle for removePostEventHook().
     */
    HookId addPostEventHook(PostEventHook hook, std::uint64_t interval = 1);

    /** Unregister a hook; unknown ids are ignored (idempotent). */
    void removePostEventHook(HookId id);

  private:
    /** One registered post-event hook and its firing cadence. */
    struct HookEntry
    {
        HookId id = 0;
        std::uint64_t interval = 1;
        std::uint64_t since = 0;
        PostEventHook hook;
    };

    /** Run each post-event hook whose interval elapsed. */
    void firePostEventHooks();

    /**
     * Fire the earlier of the next arrival and the queue front if it
     * is not after @p deadline (arrivals win ties).
     * @return false when nothing fired.
     */
    bool step(Time deadline);

    EventQueue events_;
    ArrivalCursor *arrivals_ = nullptr;
    Time now_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t arrivalsFired_ = 0;

    std::vector<HookEntry> hooks_;
    HookId nextHookId_ = 1;
};

} // namespace emmcsim::sim

#endif // EMMCSIM_SIM_SIMULATOR_HH
