/**
 * @file
 * ArrivalCursor: a sorted stream of externally timed arrivals that
 * the Simulator merges with its event queue.
 *
 * Open-loop replay issues requests at their trace timestamps, so the
 * future arrivals are known up front and already sorted. Keeping them
 * out of the event queue leaves the queue holding only device work (a
 * handful of live events) instead of the whole trace. Simulator::run
 * and runUntil compare the cursor's next time with the queue front at
 * every step; an arrival wins a same-tick tie against any queued
 * event, and arrivals fire in cursor order among themselves.
 */

#ifndef EMMCSIM_SIM_ARRIVALS_HH
#define EMMCSIM_SIM_ARRIVALS_HH

#include "sim/types.hh"

namespace emmcsim::sim {

/** Sorted arrival stream; see file comment. */
class ArrivalCursor
{
  public:
    /**
     * Time of the next arrival; kTimeNever once exhausted. Must be
     * non-decreasing across fireNext() calls.
     */
    virtual Time nextArrival() const = 0;

    /**
     * Fire the next arrival. The simulator has already advanced now()
     * to nextArrival(); the arrival may schedule events.
     */
    virtual void fireNext() = 0;

  protected:
    /** Not owned through this interface (the simulator borrows it). */
    ~ArrivalCursor() = default;
};

} // namespace emmcsim::sim

#endif // EMMCSIM_SIM_ARRIVALS_HH
