/**
 * @file
 * The lost-completion fault path of both memory buffers, pinned.
 *
 * A trained one-DIMM system runs one read, or one write with a flush
 * right behind it, while the buffer swallows the next memory
 * completions. One swallowed completion is survived by a single
 * watchdog retry; four exhaust the retries, so the tag is reclaimed:
 * a read returns poisoned, a write is written off and releases the
 * flush behind it. The counters, the host-visible outcome, the FSP
 * error log and the final tick are pinned for MBS and for Centaur in
 * its conservative (cache off) setting, where every access reaches
 * DDR. Stats are read by name so the pins hold however the buffers
 * lay out their watchdog state.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

struct FaultPathCase
{
    const char *label;
    BufferKind buffer;
    unsigned stalls;
    bool writeFlush; ///< Write + flush; otherwise a single read.
    double cmdTimeouts, cmdRetries, tagsReclaimed, droppedCompletions;
    bool poisoned;
    bool flushDone;
    std::size_t errorLogSize;
    Tick finalTick;
};

std::ostream &
operator<<(std::ostream &os, const FaultPathCase &c)
{
    return os << c.label;
}

Power8System::Params
oneDimmSystem(BufferKind buffer)
{
    Power8System::Params p;
    p.buffer = buffer;
    p.centaurConfig = centaur::CentaurModel::conservative();
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

stats::StatGroup &
bufferStats(Power8System &sys)
{
    if (sys.card())
        return sys.card()->mbs();
    return *sys.centaurBuffer();
}

/** Swallow the buffer's next @p n memory completions. */
void
stallNext(Power8System &sys, unsigned n)
{
    if (sys.card())
        sys.card()->mbs().cmdWatchdog().stallNextCompletions(n);
    else
        sys.centaurBuffer()->cmdWatchdog().stallNextCompletions(n);
}

double
counter(Power8System &sys, const char *name)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(
        bufferStats(sys).findStat(name));
    EXPECT_NE(s, nullptr) << name;
    return s ? s->value() : -1.0;
}

class BufferFaultPath : public ::testing::TestWithParam<FaultPathCase>
{};

TEST_P(BufferFaultPath, MatchesPinnedOutcome)
{
    const FaultPathCase &c = GetParam();
    Power8System sys(oneDimmSystem(c.buffer));
    ASSERT_TRUE(sys.train());
    stallNext(sys, c.stalls);

    bool poisoned = false, failed = false, flush_done = false;
    if (c.writeFlush) {
        dmi::CacheLine line;
        line.fill(0x3c);
        sys.port().write(0x4000, line, [&](const HostOpResult &r) {
            failed |= r.failed;
        });
        sys.port().flush([&](const HostOpResult &r) {
            failed |= r.failed;
            flush_done = true;
        });
    } else {
        sys.port().read(0x4000, [&](const HostOpResult &r) {
            failed |= r.failed;
            poisoned = r.poisoned;
        });
    }
    ASSERT_TRUE(sys.runUntilIdle(milliseconds(1)));

    EXPECT_FALSE(failed);
    EXPECT_EQ(counter(sys, "cmdTimeouts"), c.cmdTimeouts);
    EXPECT_EQ(counter(sys, "cmdRetries"), c.cmdRetries);
    EXPECT_EQ(counter(sys, "tagsReclaimed"), c.tagsReclaimed);
    EXPECT_EQ(counter(sys, "droppedCompletions"), c.droppedCompletions);
    EXPECT_EQ(poisoned, c.poisoned);
    EXPECT_EQ(flush_done, c.flushDone);
    EXPECT_EQ(sys.channel().errorLog().size(), c.errorLogSize);
    EXPECT_EQ(sys.eventq().curTick(), c.finalTick);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, BufferFaultPath,
    ::testing::Values(
        FaultPathCase{"MbsRead1", BufferKind::contutto, 1, false,
                      1, 1, 0, 1, false, false, 0, Tick(20540000)},
        FaultPathCase{"MbsRead4", BufferKind::contutto, 4, false,
                      4, 3, 1, 4, true, false, 1, Tick(300232000)},
        FaultPathCase{"MbsWriteFlush1", BufferKind::contutto, 1, true,
                      1, 1, 0, 1, false, true, 0, Tick(20536000)},
        FaultPathCase{"MbsWriteFlush4", BufferKind::contutto, 4, true,
                      4, 3, 1, 4, false, true, 1, Tick(300240000)},
        FaultPathCase{"CentaurRead1", BufferKind::centaur, 1, false,
                      1, 1, 0, 1, false, false, 0, Tick(20161000)},
        FaultPathCase{"CentaurRead4", BufferKind::centaur, 4, false,
                      4, 3, 1, 4, true, false, 1, Tick(300116000)},
        FaultPathCase{"CentaurWriteFlush1", BufferKind::centaur, 1,
                      true, 1, 1, 0, 1, false, true, 0, Tick(20167500)},
        FaultPathCase{"CentaurWriteFlush4", BufferKind::centaur, 4,
                      true, 4, 3, 1, 4, false, true, 1, Tick(300124000)}),
    [](const ::testing::TestParamInfo<FaultPathCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
