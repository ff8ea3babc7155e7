/**
 * @file
 * Unit tests for the event queue and simulator loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/simulator.hh"

using namespace emmcsim::sim;

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTime(), kTimeNever);
}

TEST(EventQueue, PopReturnsFalseWhenEmpty)
{
    EventQueue q;
    Time t;
    EventAction a;
    EXPECT_FALSE(q.pop(t, a));
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });

    Time t;
    EventAction a;
    while (q.pop(t, a))
        a();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    Time t;
    EventAction a;
    while (q.pop(t, a))
        a();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue q;
    q.schedule(50, [] {});
    q.schedule(40, [] {});
    EXPECT_EQ(q.nextTime(), 40);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    Time t;
    EventAction a;
    EXPECT_FALSE(q.pop(t, a));
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{}));     // default handle
    EXPECT_FALSE(q.cancel(EventId{1234})); // never issued
}

TEST(EventQueue, CancelStaleHandleAfterSlotReuseFails)
{
    // The ABA case: a handle outlives its event, a new event takes
    // its place in the queue, and the stale cancel must not kill it.
    EventQueue q;
    bool firstFired = false;
    bool secondFired = false;
    EventId a = q.schedule(10, [&] { firstFired = true; });
    ASSERT_TRUE(q.cancel(a));
    EventId b = q.schedule(20, [&] { secondFired = true; });
    EXPECT_NE(b, a);           // handles are never reused
    EXPECT_FALSE(q.cancel(a)); // stale handle bounces off
    EXPECT_EQ(q.size(), 1u);   // live event unaffected

    Time t;
    EventAction act;
    ASSERT_TRUE(q.pop(t, act));
    act();
    EXPECT_TRUE(secondFired);
    EXPECT_FALSE(firstFired);
    EXPECT_FALSE(q.pop(t, act));
}

TEST(EventQueue, FiredHandleCannotBeCancelled)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    Time t;
    EventAction a;
    ASSERT_TRUE(q.pop(t, a));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelStormKeepsSurvivorsInOrder)
{
    // Cancel 3/4 of a batch: every cancel rebuilds the heap around
    // the survivors, which must still fire in time order.
    EventQueue q;
    std::vector<EventId> ids;
    ids.reserve(256);
    int fired = 0;
    for (int i = 0; i < 256; ++i)
        ids.push_back(q.schedule(i, [&] { ++fired; }));
    for (int i = 0; i < 256; ++i) {
        if (i % 4 != 0) {
            ASSERT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
        }
    }
    EXPECT_EQ(q.size(), 64u);

    std::vector<std::string> violations;
    q.auditInvariants(violations);
    EXPECT_TRUE(violations.empty()) << violations.front();

    Time t;
    EventAction a;
    Time last = -1;
    while (q.pop(t, a)) {
        EXPECT_GE(t, last);
        last = t;
        a();
    }
    EXPECT_EQ(fired, 64);
}

TEST(EventQueue, SameTickFifoSurvivesOutOfOrderCancels)
{
    // Shuffle the heap with an out-of-order cancel storm among
    // surviving events, then schedule same-tick events: they must
    // still fire in scheduling order wherever the rebuilt heap placed
    // them, and ahead of the later survivors.
    EventQueue q;
    std::vector<EventId> ids;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        ids.push_back(q.schedule(5, [] {}));
        q.schedule(7, [&order, i] { order.push_back(100 + i); });
    }
    for (int i : {3, 0, 6, 1, 7, 2, 5, 4})
        ASSERT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));

    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    Time t;
    EventAction a;
    while (q.pop(t, a))
        a();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(order[static_cast<std::size_t>(8 + i)], 100 + i);
    }
}

TEST(InlineAction, CaptureSizeLimits)
{
    // The event path must never fall back to the heap: captures up to
    // kInlineBytes fit, anything bigger is rejected at compile time.
    struct Fits
    {
        unsigned char pad[InlineAction::kInlineBytes];
        void operator()() {}
    };
    struct TooBig
    {
        unsigned char pad[InlineAction::kInlineBytes + 1];
        void operator()() {}
    };
    static_assert(InlineAction::fits<Fits>());
    static_assert(!InlineAction::fits<TooBig>());
    static_assert(InlineAction::kInlineBytes == 48);

    // Move transfers the capture; the source goes empty.
    int hits = 0;
    InlineAction a = [&hits] { ++hits; };
    InlineAction b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
    b = nullptr;
    EXPECT_TRUE(b == nullptr);
}

TEST(InlineAction, DestroysCaptureWhenRetired)
{
    // Cancel must release captured state eagerly (shared_ptr capture
    // observably drops its refcount).
    auto token = std::make_shared<int>(42);
    EventQueue q;
    EventId id = q.schedule(10, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    ASSERT_TRUE(q.cancel(id));
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, CancelMiddleKeepsOthers)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    EventId mid = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    q.cancel(mid);
    Time t;
    EventAction a;
    while (q.pop(t, a))
        a();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue q;
    EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);

    // Fired events leave the count; scheduledCount() keeps every
    // event ever scheduled, cancelled ones included.
    Time t;
    EventAction act;
    for (int i = 0; i < 1000; ++i) {
        q.schedule(10 + i, [] {});
        ASSERT_TRUE(q.pop(t, act));
        ASSERT_EQ(q.size(), 1u);
    }
    EXPECT_EQ(q.scheduledCount(), 1002u);
    for (int i = 0; i < 10; ++i)
        q.schedule(2000 + i, [] {});
    EXPECT_EQ(q.size(), 11u);
    while (q.pop(t, act)) {
    }
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.scheduledCount(), 1012u);
}

TEST(Simulator, NowAdvancesWithEvents)
{
    Simulator s;
    Time seen = -1;
    s.schedule(100, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, NowIsCurrentInsideNestedEvents)
{
    // Regression test: now() must be updated *before* an event action
    // runs, or submissions scheduled for "now" see a stale clock.
    Simulator s;
    std::vector<Time> seen;
    s.schedule(10, [&] {
        seen.push_back(s.now());
        s.schedule(25, [&] { seen.push_back(s.now()); });
    });
    s.run();
    EXPECT_EQ(seen, (std::vector<Time>{10, 25}));
}

TEST(Simulator, ScheduleAfterUsesDelay)
{
    Simulator s;
    Time fired = -1;
    s.schedule(5, [&] {
        s.scheduleAfter(7, [&] { fired = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired, 12);
}

TEST(Simulator, RunReturnsEventCount)
{
    Simulator s;
    for (int i = 0; i < 5; ++i)
        s.schedule(i, [] {});
    EXPECT_EQ(s.run(), 5u);
    EXPECT_EQ(s.executedCount(), 5u);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(20, [&] { ++fired; });
    s.schedule(30, [&] { ++fired; });
    EXPECT_EQ(s.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    EXPECT_TRUE(s.pending());
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle)
{
    Simulator s;
    s.runUntil(500);
    EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, EventsAtDeadlineStillFire)
{
    Simulator s;
    bool fired = false;
    s.schedule(20, [&] { fired = true; });
    s.runUntil(20);
    EXPECT_TRUE(fired);
}

TEST(Simulator, CancelScheduledEvent)
{
    Simulator s;
    bool fired = false;
    EventId id = s.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, FiringEventCannotCancelItselfButCanCancelOthers)
{
    // The firing event is off the queue before its action runs: its
    // own handle is already stale, while a pending one still cancels.
    Simulator s;
    EventId self;
    EventId other;
    bool selfCancelled = true;
    bool otherCancelled = false;
    bool otherFired = false;
    self = s.schedule(10, [&] {
        selfCancelled = s.cancel(self);
        otherCancelled = s.cancel(other);
    });
    other = s.schedule(20, [&] { otherFired = true; });
    EXPECT_EQ(s.run(), 1u);
    EXPECT_FALSE(selfCancelled);
    EXPECT_TRUE(otherCancelled);
    EXPECT_FALSE(otherFired);
}

TEST(Simulator, PendingReflectsQueue)
{
    Simulator s;
    EXPECT_FALSE(s.pending());
    s.schedule(1, [] {});
    EXPECT_TRUE(s.pending());
    s.run();
    EXPECT_FALSE(s.pending());
}

TEST(Simulator, ManyEventsStaySorted)
{
    Simulator s;
    Time last = -1;
    bool monotonic = true;
    // Deterministic pseudo-random times.
    std::uint64_t x = 12345;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Time when = static_cast<Time>(x % 100000);
        s.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    s.run();
    EXPECT_TRUE(monotonic);
}

namespace {

/** Arrival cursor over a fixed time list; arrival k records -k. */
class ListCursor final : public ArrivalCursor
{
  public:
    ListCursor(std::vector<Time> times, std::vector<int> &fired)
        : times_(std::move(times)), fired_(fired)
    {
    }

    Time
    nextArrival() const override
    {
        return pos_ < times_.size() ? times_[pos_] : kTimeNever;
    }

    void
    fireNext() override
    {
        fired_.push_back(-static_cast<int>(++pos_));
    }

  private:
    std::vector<Time> times_;
    std::size_t pos_ = 0;
    std::vector<int> &fired_;
};

} // namespace

TEST(Simulator, ArrivalsWinSameTickTiesAndCountAsEvents)
{
    Simulator s;
    std::vector<int> fired;
    // Events scheduled before the cursor exists still lose the tie.
    s.schedule(100, [&fired] { fired.push_back(1); });
    s.schedule(200, [&fired] { fired.push_back(2); });
    ListCursor arrivals({100, 100, 150, 200}, fired);
    s.setArrivals(&arrivals);
    std::uint64_t hooks = 0;
    s.addPostEventHook([&hooks](const Simulator &) { ++hooks; });
    EXPECT_EQ(s.run(), 6u);
    s.setArrivals(nullptr);
    EXPECT_EQ(fired, (std::vector<int>{-1, -2, 1, -3, -4, 2}));
    EXPECT_EQ(s.executedCount(), 6u);
    EXPECT_EQ(s.arrivalsFired(), 4u);
    EXPECT_EQ(hooks, 6u);
    EXPECT_EQ(s.now(), 200);
}

TEST(Simulator, RunUntilMergesArrivalsUpToTheDeadline)
{
    Simulator s;
    std::vector<int> fired;
    ListCursor arrivals({10, 30, 50}, fired);
    s.setArrivals(&arrivals);
    s.schedule(20, [&fired] { fired.push_back(1); });
    EXPECT_TRUE(s.pending());
    EXPECT_EQ(s.nextEventTime(), 10);
    EXPECT_EQ(s.runUntil(30), 3u);
    EXPECT_EQ(fired, (std::vector<int>{-1, 1, -2}));
    EXPECT_EQ(s.nextEventTime(), 50);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_FALSE(s.pending());
    s.setArrivals(nullptr);
}
