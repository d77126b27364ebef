/** @file Unit tests for the event queue. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event.hh"

using namespace contutto;

namespace
{

EventFunctionWrapper
record(std::vector<int> &log, int id)
{
    return EventFunctionWrapper([&log, id] { log.push_back(id); },
                                "record");
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    eq.schedule(&b, 200);
    eq.schedule(&a, 100);
    eq.schedule(&c, 300);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickUsesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTiesBeforeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    EventFunctionWrapper low([&] { log.push_back(1); }, "low",
                             Event::statPriority);
    EventFunctionWrapper high([&] { log.push_back(2); }, "high",
                              Event::clockPriority);
    eq.schedule(&low, 10);
    eq.schedule(&high, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, RunLimitStopsBeforeFutureEvents)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 1000);
    Tick reached = eq.run(500);
    EXPECT_EQ(reached, 500u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanRescheduleThemselves)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper *tickp = nullptr;
    EventFunctionWrapper tick(
        [&] {
            if (++count < 5)
                eq.schedule(tickp, eq.curTick() + 10);
        },
        "tick");
    tickp = &tick;
    eq.schedule(&tick, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    EXPECT_TRUE(eq.empty());
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(&b);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.eventsProcessed(), 1u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, SameTickRescheduleIsOrderPreservingNoop)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    // Rearming a at its own tick must NOT move it behind b.
    eq.reschedule(&a, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.counters().rescheduleNoops, 1u);
}

TEST(EventQueue, FarFutureEventsCrossTheWheelHorizon)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    // b lands exactly on the horizon, c far past it; both take the
    // overflow path and must interleave correctly with near a.
    eq.schedule(&c, 5 * EventQueue::wheelSpan + 3);
    eq.schedule(&b, EventQueue::wheelSpan);
    eq.schedule(&a, EventQueue::wheelSpan - 1);
    EXPECT_EQ(eq.counters().overflowSpills, 2u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 5 * EventQueue::wheelSpan + 3);
}

TEST(EventQueue, OverflowPullPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    auto far = record(log, 1);
    auto near = record(log, 2);
    const Tick meet = EventQueue::wheelSpan + 100;
    // far is scheduled first (smaller order) from tick 0, beyond the
    // horizon. kick fires at 200 — inside the horizon of `meet` —
    // and schedules near at the same tick, into the bucket *before*
    // the queue pulls far across. The pull must place far (original
    // order) ahead of near despite arriving in the bucket second.
    EventFunctionWrapper kick(
        [&] {
            log.push_back(0);
            eq.schedule(&near, meet);
        },
        "kick");
    eq.schedule(&far, meet);
    eq.schedule(&kick, 200);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.counters().overflowPulls, 1u);
}

TEST(EventQueue, DeschedulingOverflowResidentIsLazy)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 2 * EventQueue::wheelSpan);
    eq.schedule(&b, 3 * EventQueue::wheelSpan);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
    EXPECT_EQ(eq.counters().stalePops, 1u);
}

TEST(EventQueue, RescheduleAcrossTheHorizon)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    eq.schedule(&a, 4 * EventQueue::wheelSpan);
    eq.reschedule(&a, 10); // overflow -> wheel
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 10u);
    EXPECT_EQ(eq.counters().stalePops, 1u); // the abandoned entry
}

TEST(EventQueue, CountersTrackCoreActivity)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.deschedule(&b);
    eq.run();
    const auto &c = eq.counters();
    EXPECT_EQ(c.schedules, 2u);
    EXPECT_EQ(c.deschedules, 1u);
    EXPECT_EQ(c.processed, 1u);
    EXPECT_EQ(c.liveHighWater, 2u);
    EXPECT_EQ(c.bucketHighWater, 2u);
}

TEST(EventQueue, OneShotPoolRecyclesSlots)
{
    EventQueue eq;
    int fired = 0;
    // A chain far longer than one pool chunk with one one-shot live
    // at a time: the first allocation misses and grows the pool, and
    // every subsequent one must reuse the freed slot.
    std::function<void()> next = [&] {
        if (++fired < 300)
            OneShotEvent::schedule(eq, eq.curTick() + 1, [&] {
                next();
            });
    };
    OneShotEvent::schedule(eq, 1, [&] { next(); });
    eq.run();
    EXPECT_EQ(fired, 300);
    const auto &c = eq.counters();
    EXPECT_EQ(c.oneShotPoolMisses, 1u);
    EXPECT_EQ(c.oneShotPoolHits, 299u);
}

TEST(EventQueue, OneShotCallbackCanScheduleOneShots)
{
    EventQueue eq;
    std::vector<int> log;
    OneShotEvent::schedule(eq, 10, [&] {
        log.push_back(1);
        OneShotEvent::schedule(eq, eq.curTick() + 5,
                               [&] { log.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 15u);
}

TEST(EventQueue, DestructionReleasesPendingOneShots)
{
    auto owned = std::make_shared<int>(7);
    std::weak_ptr<int> watch = owned;
    {
        EventQueue eq;
        // One in the wheel, one beyond its horizon, one that fired
        // (its slot is back on the freelist), one descheduled
        // persistent event leaving a stale overflow entry behind.
        OneShotEvent::schedule(eq, 100, [owned] {});
        OneShotEvent::schedule(eq, EventQueue::wheelSpan * 4,
                               [owned] {});
        OneShotEvent::schedule(eq, 10, [owned] {});
        {
            EventFunctionWrapper gone([] {}, "gone");
            eq.schedule(&gone, EventQueue::wheelSpan * 8);
            eq.deschedule(&gone);
        }
        eq.run(50);
        owned.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(InplaceFunction, InvokesAndMoves)
{
    int calls = 0;
    InplaceFunction<void(), 32> f([&calls] { ++calls; });
    EXPECT_TRUE(static_cast<bool>(f));
    f();
    InplaceFunction<void(), 32> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    g();
    EXPECT_EQ(calls, 2);
    g.reset();
    EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InplaceFunction, DestroysCaptures)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        InplaceFunction<int(), 32> f(
            [token] { return *token; });
        token.reset();
        EXPECT_EQ(f(), 7);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 100);
    eq.run();
    EXPECT_DEATH(eq.schedule(&b, 50), "in the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    eq.schedule(&a, 100);
    EXPECT_DEATH(eq.schedule(&a, 200), "twice");
    eq.deschedule(&a);
}

} // namespace
