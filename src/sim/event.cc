#include "sim/event.hh"

#include <utility>

#include "sim/logging.hh"

namespace emmcsim::sim {

EventQueue::EventQueue()
{
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
    heap_.reserve(kChunkSlots);
    freelist_.reserve(kChunkSlots);
}

bool
EventQueue::cancel(EventId id)
{
    // A recycled slot carries a newer generation, so a stale handle
    // (the ABA case) falls out here instead of killing the new event.
    // A firing event's generation was bumped before its action ran,
    // so it too lands here and cannot cancel itself mid-flight.
    if (id.slot >= slotCount_ || slotAt(id.slot).gen != id.gen)
        return false;
    retireSlot(id.slot);
    EMMCSIM_DCHECK(liveCount_ > 0,
                   "cancel with zero live events (ledger drift)");
    --liveCount_;
    // The heap entry stays behind as a dead entry (lazy delete).
    ++deadEntries_;
    if (deadEntries_ > heap_.size() / 2 && heap_.size() >= kCompactMin)
        compact();
    return true;
}

void
EventQueue::retireSlot(std::uint32_t slot)
{
    slotAt(slot).action = nullptr; // release captured state eagerly
    ++slotAt(slot).gen;            // invalidate outstanding handles
    freelist_.push_back(slot);
}

void
EventQueue::compact()
{
    // Sweep every dead entry in place and rebuild the heap bottom-up
    // (Floyd): O(n) total, amortised O(1) per cancel by the > n/2
    // trigger.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (entryLive(heap_[i]))
            heap_[kept++] = heap_[i];
    }
    heap_.resize(kept);
    deadEntries_ = 0;
    for (std::size_t i = kept / kArity + 1; i-- > 0;) {
        if (i < kept)
            siftDown(i);
    }
    ++compactions_;
}

bool
EventQueue::pop(Time &when_out, EventAction &action_out)
{
    dropDeadFront();
    if (heap_.empty())
        return false;
    const HeapEntry e = heap_.front();
    heapPopFront();
    EMMCSIM_DCHECK(e.when >= lastPopTime_, "event popped out of order");
    lastPopTime_ = e.when;
    when_out = e.when;
    action_out = std::move(slotAt(e.slot).action);
    retireSlot(e.slot); // fired events cannot be cancelled later
    EMMCSIM_DCHECK(liveCount_ > 0,
                   "pop with zero live events (ledger drift)");
    --liveCount_;
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

    // A dispatch in flight holds one slot that is neither live nor
    // freelisted (device audit hooks run inside actions).
    const bool firingActive = firing_ != EventId::kNoSlot;
    const std::size_t inFlight = firingActive ? 1 : 0;

    // Slot conservation: every arena slot is either live (scheduled,
    // unfired, uncancelled), parked on the freelist, or the one slot
    // currently firing.
    check(freelist_.size() + inFlight <= slotCount_,
          "event queue: freelist longer than the arena");
    check(liveCount_ == slotCount_ - freelist_.size() - inFlight,
          "event queue: live-event count disagrees with the arena "
          "ledger");
    check(highWater_ >= liveCount_,
          "event queue: high-water mark below the live count");
    check(scheduledCount_ >= liveCount_,
          "event queue: more live events than were ever scheduled");

    // Freelist hygiene: in range, no duplicates, no parked actions
    // (captured state would leak past retirement), and the firing
    // slot is not recycled while its action runs.
    std::vector<bool> onFreelist(slotCount_, false);
    bool freelistClean = true;
    for (std::uint32_t s : freelist_) {
        if (s >= slotCount_ || onFreelist[s] ||
            (firingActive && s == firing_)) {
            freelistClean = false;
            break;
        }
        onFreelist[s] = true;
    }
    check(freelistClean,
          "event queue: freelist holds an out-of-range, duplicate, "
          "or in-flight slot");
    bool parkedAction = false;
    bool liveWithoutAction = false;
    if (freelistClean) {
        for (std::size_t s = 0; s < slotCount_; ++s) {
            if (firingActive && s == firing_)
                continue; // holds the executing action; neither state
            const bool hasAction =
                slotAt(static_cast<std::uint32_t>(s)).action != nullptr;
            if (onFreelist[s] && hasAction)
                parkedAction = true;
            if (!onFreelist[s] && !hasAction)
                liveWithoutAction = true;
        }
    }
    check(!parkedAction,
          "event queue: retired slot still holds its action");
    check(!liveWithoutAction,
          "event queue: live slot lost its action");

    // Heap coverage: each live slot has exactly one live heap entry,
    // every entry carries an issued sequence number, and the
    // dead-entry counter equals the recount.
    std::size_t liveEntries = 0;
    std::size_t deadEntries = 0;
    std::vector<bool> seen(slotCount_, false);
    bool duplicated = false;
    bool seqSane = true;
    for (const HeapEntry &e : heap_) {
        if (e.seq >= nextSeq_)
            seqSane = false;
        if (!entryLive(e)) {
            ++deadEntries;
            continue;
        }
        ++liveEntries;
        if (seen[e.slot])
            duplicated = true;
        seen[e.slot] = true;
    }
    check(!duplicated,
          "event queue: live slot appears twice in the heap");
    check(liveEntries == liveCount_,
          "event queue: live heap-entry count disagrees with the "
          "ledger");
    check(deadEntries == deadEntries_,
          "event queue: dead-entry counter disagrees with a recount");
    check(seqSane,
          "event queue: heap entry carries an unissued sequence "
          "number");

    // Structural order: (when, seq) parent <= children.
    bool ordered = true;
    for (std::size_t i = 1; i < heap_.size(); ++i) {
        if (earlier(heap_[i], heap_[(i - 1) / kArity]))
            ordered = false;
    }
    check(ordered, "event queue: heap ordering property violated");

    // Time monotonicity: nothing pending may fire before the last
    // popped event (nextTime skips dead entries).
    const Time next = nextTime();
    check(next == kTimeNever || next >= lastPopTime_,
          "event queue: pending event earlier than last popped event");
    return checks;
}

void
EventQueue::corruptLiveCountForTest(std::int64_t delta)
{
    liveCount_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(liveCount_) + delta);
}

} // namespace emmcsim::sim
