#include "sim/event.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace emmcsim::sim {

bool
EventQueue::cancel(EventId id)
{
    // The queue holds a handful of events (DESIGN.md §16), so a linear
    // scan beats any index that would have to be kept up to date.
    auto it = std::find_if(heap_.begin(), heap_.end(),
                           [&](const Entry &e) { return e.seq == id.seq; });
    if (it == heap_.end())
        return false;
    // Overwriting the entry destroys its action; pop_back destroys it
    // when it was the last one.
    if (it != heap_.end() - 1)
        *it = std::move(heap_.back());
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), later);
    return true;
}

bool
EventQueue::pop(Time &when_out, EventAction &action_out)
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry &e = heap_.back();
    EMMCSIM_DCHECK(e.when >= lastPopTime_, "event popped out of order");
    lastPopTime_ = e.when;
    when_out = e.when;
    action_out = std::move(e.action);
    heap_.pop_back();
    return true;
}

std::uint64_t
EventQueue::auditInvariants(std::vector<std::string> &violations) const
{
    std::uint64_t checks = 0;
    auto check = [&](bool ok, const char *what) {
        ++checks;
        if (!ok)
            violations.emplace_back(what);
    };

    bool issued = true;
    bool armed = true;
    bool afterLastPop = true;
    for (const Entry &e : heap_) {
        issued = issued && e.seq < nextSeq_;
        armed = armed && e.action != nullptr;
        afterLastPop = afterLastPop && e.when >= lastPopTime_;
    }
    check(std::is_heap(heap_.begin(), heap_.end(), later),
          "event queue: heap ordering property violated");
    check(issued,
          "event queue: heap entry carries an unissued sequence number");
    check(armed, "event queue: pending event lost its action");
    check(afterLastPop,
          "event queue: pending event earlier than last popped event");
    return checks;
}

} // namespace emmcsim::sim
