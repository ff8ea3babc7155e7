/**
 * @file
 * Proof that the steady-state event path performs zero heap
 * allocations: global operator new is replaced with a counting
 * implementation, and a warmed-up schedule/pop cycle must not bump
 * the counter, with and without an arrival cursor merged in. Kept in
 * its own test binary because the replacement operators apply to
 * every translation unit they are linked into.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/event.hh"
#include "sim/simulator.hh"

namespace {

std::atomic<std::uint64_t> g_heapAllocs{0};

} // namespace

// Counting replacements for the throwing, unaligned forms (the only
// ones the event core could reach; over-aligned types keep the
// default operators, which never mix with these).
void *
operator new(std::size_t n)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace emmcsim::sim;

TEST(EventCoreAllocation, SteadyStateScheduleRunIsHeapFree)
{
    constexpr int kBatch = 1024;
    EventQueue q;
    std::uint64_t sink = 0;
    Time base = 0;

    auto fillDrain = [&] {
        for (int i = 0; i < kBatch; ++i)
            q.schedule(base + i, [&sink] { ++sink; });
        Time t;
        EventAction a;
        while (q.pop(t, a))
            a();
        base += kBatch;
    };

    // Warm-up: grow the heap vector past the constructor's
    // reservation to a full batch.
    fillDrain();
    fillDrain();

    const std::uint64_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    fillDrain();
    const std::uint64_t after =
        g_heapAllocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/pop allocated on the heap";
    EXPECT_EQ(sink, static_cast<std::uint64_t>(3 * kBatch));
}

TEST(EventCoreAllocation, ReservedCapacityIsHeapFreeFromConstruction)
{
    // The constructor reserves heap room for 256 events, so up to
    // 256 live events never allocate.
    EventQueue q;
    std::uint64_t sink = 0;
    const std::uint64_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 256; ++i)
        q.schedule(i, [&sink] { ++sink; });
    Time t;
    EventAction a;
    while (q.pop(t, a))
        a();
    const std::uint64_t after =
        g_heapAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "the constructor's reservation allocated on the heap";
    EXPECT_EQ(sink, 256u);
}

TEST(EventCoreAllocation, SteadyStateCancelIsHeapFree)
{
    constexpr int kBatch = 512;
    EventQueue q;
    Time base = 0;
    std::vector<EventId> ids(static_cast<std::size_t>(kBatch));

    auto churn = [&] {
        for (int i = 0; i < kBatch; ++i)
            ids[static_cast<std::size_t>(i)] =
                q.schedule(base + i, [] {});
        for (int i = 0; i < kBatch; i += 2)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        Time t;
        EventAction a;
        while (q.pop(t, a))
            a();
        base += kBatch;
    };

    churn();
    churn();
    const std::uint64_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    churn();
    const std::uint64_t after =
        g_heapAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state cancel path allocated on the heap";
}

/** Arrival cursor replaying a preallocated arrival list each round. */
class RoundArrivals final : public ArrivalCursor
{
  public:
    explicit RoundArrivals(std::uint64_t &sink) : sink_(sink) {}

    void
    rewind(Time base, int n)
    {
        base_ = base;
        n_ = n;
        i_ = 0;
    }

    Time
    nextArrival() const override
    {
        return i_ < n_ ? base_ + i_ / 2 * 2 : kTimeNever;
    }

    void
    fireNext() override
    {
        ++i_;
        ++sink_;
    }

  private:
    std::uint64_t &sink_;
    Time base_ = 0;
    int n_ = 0;
    int i_ = 0;
};

TEST(EventCoreAllocation, SimulatorLoopIsHeapFreeAfterWarmup)
{
    // Events and cursor arrivals interleave, with same-tick ties
    // between them: the merged loop must not allocate either.
    constexpr int kBatch = 256;
    Simulator s;
    std::uint64_t sink = 0;
    Time base = 0;
    RoundArrivals arrivals(sink);
    s.setArrivals(&arrivals);

    auto round = [&] {
        for (int i = 0; i < kBatch; ++i)
            s.schedule(base + i, [&sink] { ++sink; });
        arrivals.rewind(base, kBatch);
        s.run();
        base += kBatch;
    };

    round();
    round();
    const std::uint64_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    round();
    const std::uint64_t after =
        g_heapAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "simulator event loop allocated on the heap";
    EXPECT_EQ(sink, static_cast<std::uint64_t>(6 * kBatch));
    EXPECT_EQ(s.arrivalsFired(), static_cast<std::uint64_t>(3 * kBatch));
    s.setArrivals(nullptr);
}

} // namespace
