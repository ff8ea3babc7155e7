#include "sim/simulator.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace emmcsim::sim {

Time
Simulator::nextEventTime() const
{
    const Time event = events_.nextTime();
    const Time arrival =
        arrivals_ != nullptr ? arrivals_->nextArrival() : kTimeNever;
    if (arrival == kTimeNever)
        return event;
    return event == kTimeNever ? arrival : std::min(arrival, event);
}

bool
Simulator::step(Time deadline)
{
    const Time event = events_.nextTime();
    const Time arrival =
        arrivals_ != nullptr ? arrivals_->nextArrival() : kTimeNever;
    if (arrival != kTimeNever &&
        (event == kTimeNever || arrival <= event)) {
        if (arrival > deadline)
            return false;
        EMMCSIM_ASSERT(arrival >= now_, "arrival cursor went backwards");
        now_ = arrival;
        ++arrivalsFired_;
        arrivals_->fireNext();
    } else {
        if (event == kTimeNever || event > deadline)
            return false;
        // The action runs out of a local: it may schedule events,
        // which can reallocate the queue's storage. The clock
        // advances first, so the action observes its own time.
        Time when = 0;
        EventAction action;
        events_.pop(when, action);
        EMMCSIM_ASSERT(when >= now_, "event queue went backwards");
        now_ = when;
        action();
    }
    ++executed_;
    if (!hooks_.empty())
        firePostEventHooks();
    return true;
}

std::uint64_t
Simulator::run()
{
    std::uint64_t n = 0;
    while (step(std::numeric_limits<Time>::max()))
        ++n;
    return n;
}

std::uint64_t
Simulator::runUntil(Time deadline)
{
    std::uint64_t n = 0;
    while (step(deadline))
        ++n;
    if (now_ < deadline)
        now_ = deadline;
    return n;
}

Simulator::HookId
Simulator::addPostEventHook(PostEventHook hook, std::uint64_t interval)
{
    EMMCSIM_ASSERT(interval >= 1, "post-event hook interval must be >= 1");
    EMMCSIM_ASSERT(hook != nullptr, "post-event hook must be callable");
    HookEntry entry;
    entry.id = nextHookId_++;
    entry.interval = interval;
    entry.hook = std::move(hook);
    hooks_.push_back(std::move(entry));
    return hooks_.back().id;
}

void
Simulator::removePostEventHook(HookId id)
{
    for (std::size_t i = 0; i < hooks_.size(); ++i) {
        if (hooks_[i].id == id) {
            hooks_.erase(hooks_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

void
Simulator::firePostEventHooks()
{
    // Hooks may not add/remove hooks from inside a callback (they are
    // observers); index-based iteration keeps that contract checkable.
    const std::size_t n = hooks_.size();
    for (std::size_t i = 0; i < n; ++i) {
        HookEntry &entry = hooks_[i];
        if (++entry.since < entry.interval)
            continue;
        entry.since = 0;
        entry.hook(*this);
        EMMCSIM_DCHECK(hooks_.size() == n,
                       "post-event hook mutated the hook list");
    }
}

} // namespace emmcsim::sim
