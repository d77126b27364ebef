/** @file Link training and FRTL measurement tests. */

#include <gtest/gtest.h>

#include "dmi/training.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

struct TrainRig
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    ClockDomain fabric{"fabric", 4000};
    stats::StatGroup root{"root"};
    DmiChannel down;
    DmiChannel up;
    HostLink host;
    BufferLink buffer;

    explicit TrainRig(BufferLink::Params buffer_params = {})
        : down("down", eq, fabric, &root,
               DmiChannel::Params{14, 125, 0.0, 1}),
          up("up", eq, fabric, &root,
             DmiChannel::Params{21, 125, 0.0, 2}),
          host("host", eq, nest, &root, {}, down, up),
          buffer("buffer", eq, fabric, &root, buffer_params, up, down)
    {}

    TrainingResult
    train(LinkTrainer::Params p)
    {
        LinkTrainer trainer("trainer", eq, nest, &root, p, host, buffer,
                            down, up);
        TrainingResult result;
        bool finished = false;
        trainer.start([&](const TrainingResult &r) {
            result = r;
            finished = true;
        });
        eq.run(milliseconds(10));
        EXPECT_TRUE(finished);
        return result;
    }
};

TEST(Training, SucceedsWithPerfectLink)
{
    TrainRig rig;
    auto r = rig.train({});
    EXPECT_TRUE(r.success);
    EXPECT_GT(r.frtl, 0u);
    EXPECT_LE(r.frtl, nanoseconds(120));
}

TEST(Training, FrtlReflectsBufferPipelineDepth)
{
    BufferLink::Params shallow;
    shallow.rxProcCycles = 2;
    shallow.txProcCycles = 1;
    BufferLink::Params deep;
    deep.rxProcCycles = 10;
    deep.txProcCycles = 6;

    TrainRig a(shallow), b(deep);
    auto ra = a.train({});
    auto rb = b.train({});
    ASSERT_TRUE(ra.success);
    ASSERT_TRUE(rb.success);
    // 13 extra fabric cycles at 4 ns = 52 ns more round trip.
    EXPECT_GT(rb.frtl, ra.frtl + nanoseconds(40));
}

TEST(Training, FailsWhenFrtlExceedsProcessorLimit)
{
    BufferLink::Params deep;
    deep.rxProcCycles = 30; // hopelessly deep pipeline
    TrainRig rig(deep);
    LinkTrainer::Params p;
    p.maxFrtl = nanoseconds(100);
    auto r = rig.train(p);
    EXPECT_FALSE(r.success);
    EXPECT_NE(r.failReason.find("FRTL"), std::string::npos);
    EXPECT_GT(r.frtl, p.maxFrtl);
}

TEST(Training, RetriesFlakyAlignment)
{
    TrainRig rig;
    LinkTrainer::Params p;
    p.lockProbability = 0.3;
    p.seed = 7;
    auto r = rig.train(p);
    EXPECT_TRUE(r.success);
    // Three alignment phases with p=0.3 should need several attempts.
    EXPECT_GT(r.attempts, 3u);
}

TEST(Training, GivesUpWhenLinkNeverLocks)
{
    TrainRig rig;
    LinkTrainer::Params p;
    p.lockProbability = 0.0;
    p.maxAttemptsPerPhase = 5;
    p.responseTimeout = microseconds(1);
    auto r = rig.train(p);
    EXPECT_FALSE(r.success);
    EXPECT_NE(r.failReason.find("alignment"), std::string::npos);
}

TEST(Training, LinkCarriesTrafficAfterTraining)
{
    TrainRig rig;
    auto r = rig.train({});
    ASSERT_TRUE(r.success);

    int delivered = 0;
    rig.buffer.onFrame = [&](const DownFrame &) { ++delivered; };
    DownFrame f;
    f.type = FrameType::command;
    f.cmdType = CmdType::read128;
    rig.host.sendFrame(f);
    rig.eq.run(milliseconds(11));
    EXPECT_EQ(delivered, 1);
}

} // namespace
