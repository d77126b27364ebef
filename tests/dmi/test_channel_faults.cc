/**
 * @file
 * Channel fault-edge tests: bursts spanning a frame boundary,
 * scrambler desync recovery, drop semantics, and BER determinism.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dmi/channel.hh"
#include "dmi/link.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

/** Same fixture shape as test_link.cc. */
struct LinkPair
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    ClockDomain fabric{"fabric", 4000};
    stats::StatGroup root{"root"};
    DmiChannel down;
    DmiChannel up;
    HostLink host;
    BufferLink buffer;

    explicit LinkPair(double error_rate = 0.0,
                      std::uint64_t seed_base = 100)
        : down("down", eq, fabric, &root,
               DmiChannel::Params{14, 125, error_rate, seed_base + 1}),
          up("up", eq, fabric, &root,
             DmiChannel::Params{21, 125, error_rate, seed_base + 2}),
          host("host", eq, nest, &root, {}, down, up),
          buffer("buffer", eq, fabric, &root, {}, up, down)
    {}

    void
    sendCommands(unsigned n)
    {
        for (unsigned t = 0; t < n; ++t) {
            DownFrame f;
            f.type = FrameType::command;
            f.cmdType = CmdType::read128;
            f.tag = std::uint8_t(t);
            f.addr = Addr(t) * 128;
            host.sendFrame(f);
        }
    }
};

TEST(ChannelFaults, BurstInsideOneFrameCorruptsOneFrame)
{
    LinkPair lp;
    std::vector<std::uint8_t> tags;
    lp.buffer.onFrame =
        [&](const DownFrame &f) { tags.push_back(f.tag); };

    // 24-bit burst at bit 100 of a 224-bit down frame: one frame.
    lp.down.corruptBurst(100, 24);
    lp.sendCommands(3);
    lp.eq.run(microseconds(50));

    ASSERT_EQ(tags.size(), 3u);
    EXPECT_EQ(lp.down.channelStats().framesCorrupted.value(), 1.0);
    EXPECT_GE(lp.host.linkStats().replaysTriggered.value(), 1.0);
}

TEST(ChannelFaults, BurstSpansFrameBoundary)
{
    LinkPair lp;
    std::vector<std::uint8_t> tags;
    lp.buffer.onFrame =
        [&](const DownFrame &f) { tags.push_back(f.tag); };

    // Down frames are 224 bits. Starting 8 bits before the end with
    // a 20-bit burst damages the first frame's tail and carries 12
    // bits into the next frame's head: two corrupted frames.
    lp.down.corruptBurst(216, 20);
    lp.sendCommands(4);
    lp.eq.run(microseconds(50));

    // Replay still delivers everything exactly once, in order.
    ASSERT_EQ(tags.size(), 4u);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(tags[t], t);
    EXPECT_EQ(lp.down.channelStats().framesCorrupted.value(), 2.0)
        << "the burst must touch exactly two frames";
    EXPECT_GE(lp.buffer.linkStats().rxCrcErrors.value(), 2.0);
    EXPECT_EQ(lp.host.unackedFrames(), 0u);
}

TEST(ChannelFaults, DroppedFrameIsRecoveredByAckTimeout)
{
    LinkPair lp;
    std::vector<std::uint8_t> tags;
    lp.buffer.onFrame =
        [&](const DownFrame &f) { tags.push_back(f.tag); };

    lp.down.dropNext(1);
    lp.sendCommands(3);
    lp.eq.run(microseconds(50));

    ASSERT_EQ(tags.size(), 3u);
    for (unsigned t = 0; t < 3; ++t)
        EXPECT_EQ(tags[t], t);
    EXPECT_EQ(lp.down.channelStats().framesDropped.value(), 1.0);
    // A dropped frame never reaches the CRC checker; recovery comes
    // from the missing ACK, not an error indication.
    EXPECT_GE(lp.host.linkStats().replaysTriggered.value(), 1.0);
    EXPECT_EQ(lp.host.unackedFrames(), 0u);
}

TEST(ChannelFaults, ScramblerDesyncRecoversAfterReseed)
{
    LinkPair lp;
    std::vector<std::uint8_t> tags;
    lp.buffer.onFrame =
        [&](const DownFrame &f) { tags.push_back(f.tag); };

    // A desynced descrambler mangles every frame; the link replays
    // fruitlessly (this is what forces a retrain on real hardware).
    lp.down.desyncRxScrambler();
    lp.sendCommands(1);
    lp.eq.run(microseconds(20));
    EXPECT_TRUE(tags.empty());
    EXPECT_GE(lp.buffer.linkStats().rxCrcErrors.value(), 2.0);

    // Retrain-equivalent repair: reseed both scramblers to a common
    // state. The still-pending replay now gets through.
    lp.down.reseedScramblers();
    lp.eq.run(microseconds(50));
    ASSERT_EQ(tags.size(), 1u);
    EXPECT_EQ(tags[0], 0);
    EXPECT_EQ(lp.host.unackedFrames(), 0u);
}

TEST(ChannelFaults, ZeroBerIsDeterministicAcrossIdenticalSeeds)
{
    // With BER = 0 no random corruption may occur, whatever the
    // seed; and two identically-seeded runs are tick-for-tick
    // reproducible in their stats.
    auto run = [](std::uint64_t seed) {
        LinkPair lp(0.0, seed);
        unsigned got = 0;
        lp.buffer.onFrame = [&](const DownFrame &) { ++got; };
        lp.sendCommands(32);
        lp.eq.run(microseconds(100));
        EXPECT_EQ(got, 32u);
        EXPECT_EQ(lp.down.channelStats().framesCorrupted.value(), 0.0);
        EXPECT_EQ(lp.down.channelStats().framesDropped.value(), 0.0);
        EXPECT_EQ(lp.host.linkStats().replaysTriggered.value(), 0.0);
        return std::make_tuple(
            lp.down.channelStats().framesCarried.value(),
            lp.down.channelStats().bytesCarried.value(),
            lp.eq.curTick());
    };
    EXPECT_EQ(run(500), run(500));
    // A different seed changes nothing either at BER = 0.
    EXPECT_EQ(run(500), run(900));
}

TEST(ChannelFaults, RandomBerIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        LinkPair lp(0.05, seed);
        unsigned got = 0;
        lp.buffer.onFrame = [&](const DownFrame &) { ++got; };
        lp.sendCommands(64);
        lp.eq.run(milliseconds(1));
        EXPECT_EQ(got, 64u);
        return std::make_tuple(
            lp.down.channelStats().framesCorrupted.value(),
            lp.host.linkStats().replaysTriggered.value(),
            lp.host.linkStats().framesReplayed.value());
    };
    auto a = run(321), b = run(321);
    EXPECT_EQ(a, b) << "same seed, same error pattern";
    EXPECT_GT(std::get<0>(a), 0.0) << "5% BER must corrupt something";
}

} // namespace
