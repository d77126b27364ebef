/** @file Same-line ordering rules (mem::LineOrder), one buffer-free
 *  driver standing in for MBS and Centaur. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/line_order.hh"

using namespace contutto;
using namespace contutto::mem;
using dmi::CmdType;

namespace
{

/** Runs re-dispatched tags, holding the line for the tags in
 *  @c holders (a buffer's hold rule). */
struct Driver
{
    std::vector<unsigned> ran;
    LineOrder::TagMask holders = 0;
    LineOrder order{[this](unsigned tag) { run(tag); }};

    void
    run(unsigned tag)
    {
        ran.push_back(tag);
        if (holders & (1u << tag))
            order.hold(tag);
    }

    /** Command @p tag arrives; true when it ran at once. */
    bool
    arrive(unsigned tag, Addr line, CmdType type)
    {
        if (!order.admit(tag, line, type))
            return false;
        run(tag);
        return true;
    }
};

TEST(LineOrder, ParksBehindAHeldLineAndBehindOlderWaiters)
{
    Driver d;
    d.holders = 0b0011; // tags 0 and 1 hold
    EXPECT_TRUE(d.arrive(0, 0x100, CmdType::write128));
    EXPECT_FALSE(d.arrive(1, 0x100, CmdType::read128));
    EXPECT_TRUE(d.arrive(2, 0x200, CmdType::read128)); // other line
    EXPECT_TRUE(d.arrive(3, 0x100, CmdType::flush));   // never waits
    EXPECT_FALSE(d.order.empty());
    // Tag 4 does not hold, but tag 1 already waits on the line.
    d.order.release(2); // not held: no-op
    EXPECT_FALSE(d.arrive(4, 0x100, CmdType::read128));
    EXPECT_EQ(d.ran, (std::vector<unsigned>{0, 2, 3}));
}

TEST(LineOrder, ReleaseRunsWaitersUntilOneHoldsTheLine)
{
    Driver d;
    d.holders = 0b01001; // tags 0 and 3: the writes
    d.arrive(0, 0x100, CmdType::write128);
    d.arrive(1, 0x100, CmdType::read128);
    d.arrive(2, 0x100, CmdType::read128);
    d.arrive(3, 0x100, CmdType::write128);
    d.arrive(4, 0x100, CmdType::read128);
    d.arrive(5, 0x300, CmdType::read128); // runs: line free
    d.ran.clear();
    // The two reads do not hold, so the write behind them runs too,
    // and the last read waits for that write.
    d.order.release(0);
    EXPECT_EQ(d.ran, (std::vector<unsigned>{1, 2, 3}));
    d.order.release(3);
    EXPECT_EQ(d.ran, (std::vector<unsigned>{1, 2, 3, 4}));
    EXPECT_TRUE(d.order.empty());
}

TEST(LineOrder, OlderWritesAreHeldOrParkedWriteClassTags)
{
    Driver d;
    d.holders = 0b01111;
    d.arrive(0, 0x100, CmdType::write128);     // held write
    d.arrive(1, 0x100, CmdType::partialWrite); // parked write
    d.arrive(2, 0x200, CmdType::read128);      // held read
    d.arrive(3, 0x200, CmdType::minStore);     // parked write-class
    d.arrive(4, 0x300, CmdType::flush);
    EXPECT_EQ(d.order.olderWrites(), 0b01011u);
    d.order.clear();
    EXPECT_TRUE(d.order.empty());
    EXPECT_EQ(d.order.olderWrites(), 0u);
}

} // namespace
