/**
 * @file
 * Replay accounting under repeated injected errors: exact
 * replay-per-error bookkeeping, the onReplay observation hook the
 * RAS watchdog subscribes to, and the ConTutto freeze-repeat to
 * replay-buffer transition.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dmi/channel.hh"
#include "dmi/link.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

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

    explicit LinkPair(HostLink::Params host_params = {},
                      BufferLink::Params buffer_params = {})
        : down("down", eq, fabric, &root,
               DmiChannel::Params{14, 125, 0.0, 31}),
          up("up", eq, fabric, &root,
             DmiChannel::Params{21, 125, 0.0, 32}),
          host("host", eq, nest, &root, host_params, down, up),
          buffer("buffer", eq, fabric, &root, buffer_params, up, down)
    {}
};

TEST(ReplayExhaustion, ReplaysMatchInjectedErrorCountExactly)
{
    LinkPair lp;
    unsigned delivered = 0;
    lp.buffer.onFrame = [&](const DownFrame &) { ++delivered; };

    // One frame at a time, each corrupted exactly once: every error
    // produces exactly one replay, no more.
    const unsigned errors = 5;
    for (unsigned i = 0; i < errors; ++i) {
        lp.down.corruptNext(1);
        DownFrame f;
        f.type = FrameType::command;
        f.cmdType = CmdType::read128;
        f.tag = std::uint8_t(i);
        lp.host.sendFrame(f);
        lp.eq.run(lp.eq.curTick() + microseconds(10));
    }

    EXPECT_EQ(delivered, errors);
    EXPECT_EQ(lp.host.linkStats().replaysTriggered.value(),
              double(errors));
    EXPECT_EQ(lp.buffer.linkStats().rxCrcErrors.value(),
              double(errors));
    EXPECT_EQ(lp.host.unackedFrames(), 0u);
}

TEST(ReplayExhaustion, OnReplayHookSeesEveryReplay)
{
    LinkPair lp;
    unsigned hook_calls = 0;
    lp.host.onReplay = [&] { ++hook_calls; };
    lp.buffer.onFrame = [](const DownFrame &) {};

    lp.down.corruptNext(3); // original + two corrupted replays
    DownFrame f;
    f.type = FrameType::command;
    f.cmdType = CmdType::read128;
    f.tag = 9;
    lp.host.sendFrame(f);
    lp.eq.run(microseconds(100));

    EXPECT_EQ(double(hook_calls),
              lp.host.linkStats().replaysTriggered.value())
        << "the watchdog hook must fire once per replay";
    EXPECT_GE(hook_calls, 3u);
}

TEST(ReplayExhaustion, FreezeRepeatsPrecedeReplayBufferTransition)
{
    // ConTutto's workaround (§3.3(ii)): on a missing ACK the MBI
    // first re-sends its last frame freezeRepeats times to cover the
    // switch onto the replay buffer; the receiver discards the
    // repeats by sequence number and only then sees the replayed
    // stream.
    BufferLink::Params bp;
    bp.freezeRepeats = 4;
    LinkPair lp({}, bp);

    unsigned delivered = 0;
    lp.host.onFrame = [&](const UpFrame &) { ++delivered; };

    lp.up.corruptNext(1);
    for (unsigned i = 0; i < 3; ++i) {
        UpFrame u;
        u.type = FrameType::done;
        u.doneCount = 1;
        u.doneTags[0] = std::uint8_t(i);
        lp.buffer.sendFrame(u);
    }
    lp.eq.run(microseconds(100));

    EXPECT_EQ(delivered, 3u);
    EXPECT_EQ(lp.buffer.linkStats().replaysTriggered.value(), 1.0);
    // Every freeze cover frame is a stale seq the host must drop.
    EXPECT_GE(lp.host.linkStats().rxSeqDrops.value(), 4.0);
    // The replay retransmitted the unacked frames on top of the
    // freeze repeats.
    EXPECT_GE(lp.buffer.linkStats().framesReplayed.value(), 1.0);
    EXPECT_EQ(lp.buffer.unackedFrames(), 0u);
}

TEST(ReplayExhaustion, BackToBackErrorsEachTriggerTheirOwnReplay)
{
    LinkPair lp;
    std::vector<std::uint8_t> tags;
    lp.buffer.onFrame =
        [&](const DownFrame &f) { tags.push_back(f.tag); };
    unsigned hook_calls = 0;
    lp.host.onReplay = [&] { ++hook_calls; };

    // A window full of frames with three spaced corruptions: the
    // link must not conflate them into one recovery.
    lp.down.corruptNext(1);
    for (unsigned i = 0; i < 12; ++i) {
        DownFrame f;
        f.type = FrameType::command;
        f.cmdType = CmdType::read128;
        f.tag = std::uint8_t(i);
        lp.host.sendFrame(f);
        if (i == 4 || i == 8)
            lp.down.corruptNext(1);
    }
    lp.eq.run(microseconds(200));

    ASSERT_EQ(tags.size(), 12u);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(tags[i], i);
    EXPECT_EQ(double(hook_calls),
              lp.host.linkStats().replaysTriggered.value());
    EXPECT_GE(hook_calls, 1u);
    EXPECT_EQ(lp.host.unackedFrames(), 0u);
}

} // namespace
