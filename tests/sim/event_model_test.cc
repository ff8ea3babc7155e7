/**
 * @file
 * Randomized differential test of the event core.
 *
 * A std::multimap keyed on (when, band) — which preserves insertion
 * order for equal keys, i.e. exactly the FIFO-within-band contract —
 * serves as the executable specification. Band 0 holds arrivals from
 * the simulator's arrival cursor, band 1 queued events, so the model
 * encodes the tie rule directly: at a tied tick every arrival fires
 * before every queued event, and each band fires in the order it was
 * fed.
 *
 * Every random operation (schedule, arrival, cancel, stale cancel,
 * advance the clock) is applied to the model and to a Simulator with
 * an attached cursor. Each firing checks it is the model's front, and
 * some firings schedule a follow-up — often at the very same tick,
 * where the pending arrivals of that tick must still go first.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/simulator.hh"

namespace {

using namespace emmcsim::sim;

/** Spread of schedule offsets: the device's 4KB-read and erase times. */
constexpr Time kShortest = 160'000;
constexpr Time kLongest = 3'800'000;

using ModelKey = std::pair<Time, int>; ///< (when, band): arrival=0
using ModelMap = std::multimap<ModelKey, int>;

class QueueModelFuzz : public ::testing::TestWithParam<std::uint32_t>
{
};

/** Arrival cursor the fuzz appends to while the simulator runs. */
class FuzzArrivals final : public ArrivalCursor
{
  public:
    explicit FuzzArrivals(std::function<void(int)> onFire)
        : onFire_(std::move(onFire))
    {
    }

    void push(Time when, int token) { list_.emplace_back(when, token); }

    /** Latest time fed so far (arrivals must not go backwards). */
    Time back() const { return list_.empty() ? 0 : list_.back().first; }

    Time
    nextArrival() const override
    {
        return pos_ < list_.size() ? list_[pos_].first : kTimeNever;
    }

    void fireNext() override { onFire_(list_[pos_++].second); }

  private:
    std::vector<std::pair<Time, int>> list_;
    std::size_t pos_ = 0;
    std::function<void(int)> onFire_;
};

TEST_P(QueueModelFuzz, PopOrderMatchesMultimapReference)
{
    std::mt19937 rng(GetParam());
    Simulator s;
    ModelMap model;
    /// Live queued events: token -> (handle, model position).
    std::map<int, std::pair<EventId, ModelMap::iterator>> live;
    std::vector<EventId> deadIds;
    int nextToken = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;

    std::uniform_int_distribution<Time> nearOff(0, kShortest);
    std::uniform_int_distribution<Time> midOff(0, 4 * kLongest);
    std::uniform_int_distribution<Time> farOff(4 * kLongest,
                                               20 * kLongest);
    auto draw = [&](int pct) {
        return std::uniform_int_distribution<int>(0, 99)(rng) < pct;
    };
    auto offset = [&] {
        if (draw(20))
            return draw(30) ? Time{0} : nearOff(rng);
        return draw(80) ? midOff(rng) : farOff(rng);
    };

    std::function<void(int)> onFire;
    FuzzArrivals arrivals([&onFire](int token) { onFire(token); });

    auto scheduleEvent = [&](Time when) {
        const int token = nextToken++;
        const EventId id =
            s.schedule(when, [&onFire, token] { onFire(token); });
        live.emplace(token, std::make_pair(
                                id, model.emplace(ModelKey{when, 1},
                                                  token)));
    };
    auto feedArrival = [&] {
        // Arrivals are sorted: never before the last one fed, nor
        // before the clock; ties with the last are common.
        const Time when = std::max(arrivals.back(), s.now()) +
                          (draw(40) ? 0 : nearOff(rng));
        const int token = nextToken++;
        arrivals.push(when, token);
        model.emplace(ModelKey{when, 0}, token);
    };

    onFire = [&](int token) {
        ++fired;
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(model.begin()->second, token)
            << "firing order diverged from the multimap reference";
        EXPECT_EQ(model.begin()->first.first, s.now());
        model.erase(model.begin());
        auto it = live.find(token);
        if (it != live.end()) {
            deadIds.push_back(it->second.first);
            live.erase(it);
        }
        // Follow-up work, as device completions schedule it; a zero
        // delay lands on this very tick behind any tied arrivals.
        if (draw(25))
            scheduleEvent(s.now() + (draw(40) ? 0 : nearOff(rng)));
    };

    s.setArrivals(&arrivals);
    constexpr int kOps = 20'000;
    for (int op = 0; op < kOps; ++op) {
        const int r = std::uniform_int_distribution<int>(0, 99)(rng);
        if (r < 45) {
            scheduleEvent(s.now() + offset());
        } else if (r < 60) {
            feedArrival();
        } else if (r < 68 && !live.empty()) {
            // Cancel a random live queued event.
            auto it = live.begin();
            std::advance(it,
                         std::uniform_int_distribution<std::size_t>(
                             0, live.size() - 1)(rng));
            EXPECT_TRUE(s.cancel(it->second.first));
            model.erase(it->second.second);
            deadIds.push_back(it->second.first);
            live.erase(it);
            ++cancelled;
        } else if (r < 72 && !deadIds.empty()) {
            // Stale cancel: fired or already-cancelled ids must be
            // rejected, even with newer events pending.
            EXPECT_FALSE(s.cancel(
                deadIds[std::uniform_int_distribution<std::size_t>(
                    0, deadIds.size() - 1)(rng)]));
        } else {
            s.runUntil(s.now() + (draw(30) ? Time{0} : nearOff(rng)));
        }
        ASSERT_EQ(s.events().size(), live.size());
        ASSERT_EQ(s.nextEventTime(), model.empty()
                                         ? kTimeNever
                                         : model.begin()->first.first);
    }

    // Drain everything; every token fired exactly once, in order.
    s.run();
    s.setArrivals(nullptr);
    EXPECT_TRUE(model.empty());
    EXPECT_FALSE(s.pending());
    EXPECT_EQ(fired + cancelled, static_cast<std::uint64_t>(nextToken));
    EXPECT_EQ(s.executedCount(), fired);
    std::vector<std::string> violations;
    s.events().auditInvariants(violations);
    EXPECT_TRUE(violations.empty());
}

TEST_P(QueueModelFuzz, StaleCancelIsRejectedAfterFire)
{
    std::mt19937 rng(GetParam() ^ 0x5eedu);
    EventQueue q;

    std::vector<EventId> ids;
    std::uniform_int_distribution<Time> off(0, 6 * kLongest);
    for (int round = 0; round < 50; ++round) {
        ids.clear();
        const Time base = q.lastPopTime();
        for (int i = 0; i < 64; ++i)
            ids.push_back(q.schedule(base + off(rng), [] {}));
        Time t;
        EventAction a;
        while (q.pop(t, a))
            a();
        // Every id fired. Handles are never reused, so all of them
        // must be rejected while newer events are pending.
        for (int i = 0; i < 32; ++i)
            q.schedule(q.lastPopTime() + off(rng), [] {});
        for (const EventId &id : ids)
            EXPECT_FALSE(q.cancel(id));
        while (q.pop(t, a))
            a();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueModelFuzz,
                         ::testing::Values(1u, 42u, 20260807u));

} // namespace
