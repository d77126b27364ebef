/**
 * @file
 * Same-line ordering of both memory buffers, pinned.
 *
 * A trained one-DIMM system issues a short sequence of reads and
 * writes to one line back to back, so every command after the first
 * reaches the buffer while an older one to the same line is still in
 * flight. Every op must complete, and every read must see the last
 * write issued before it: reads never pass writes to their line, and
 * a read parked behind a write never waits for a younger one. The
 * final tick is pinned for MBS, Centaur optimized() (cache on) and
 * Centaur conservative() (cache off), and so is the number of
 * commands MBS parked.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

enum class Buffer { mbs, centaurOptimized, centaurConservative };

struct LineOrderCase
{
    Buffer buffer;
    const char *ops; ///< 'w' writes, 'r' reads, in issue order.
    Tick finalTick;
    double addrOrderStalls; ///< MBS only.
};

std::string
label(const LineOrderCase &c)
{
    static const char *const names[] = {"Mbs", "CentaurOpt",
                                        "CentaurCons"};
    return std::string(names[int(c.buffer)]) + "_" + c.ops;
}

std::ostream &
operator<<(std::ostream &os, const LineOrderCase &c)
{
    return os << label(c);
}

Power8System::Params
oneDimmSystem(Buffer buffer)
{
    Power8System::Params p;
    p.buffer = buffer == Buffer::mbs ? BufferKind::contutto
                                     : BufferKind::centaur;
    p.centaurConfig = buffer == Buffer::centaurOptimized
        ? centaur::CentaurModel::optimized()
        : centaur::CentaurModel::conservative();
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

class BufferLineOrder : public ::testing::TestWithParam<LineOrderCase>
{};

TEST_P(BufferLineOrder, ReadsSeeTheLastOlderWrite)
{
    const LineOrderCase &c = GetParam();
    Power8System sys(oneDimmSystem(c.buffer));
    ASSERT_TRUE(sys.train());

    constexpr Addr line = 0x1000;
    std::uint8_t fill = 0;
    sys.functionalRead(line, 1, &fill);
    const std::string ops = c.ops;
    unsigned completed = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i] == 'w') {
            fill = std::uint8_t(0xa0 + i); // distinct per write
            dmi::CacheLine data;
            data.fill(fill);
            sys.port().write(line, data, [&](const HostOpResult &r) {
                EXPECT_FALSE(r.failed);
                ++completed;
            });
        } else {
            dmi::CacheLine want;
            want.fill(fill);
            sys.port().read(line, [&, i, want](const HostOpResult &r) {
                EXPECT_FALSE(r.failed);
                EXPECT_EQ(r.data, want) << "read " << i;
                ++completed;
            });
        }
    }
    EXPECT_TRUE(sys.runUntilIdle(milliseconds(1)));
    EXPECT_EQ(completed, ops.size());
    EXPECT_EQ(sys.eventq().curTick(), c.finalTick);
    if (sys.card()) {
        EXPECT_EQ(sys.card()->mbs().mbsStats().addrOrderStalls.value(),
                  c.addrOrderStalls);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, BufferLineOrder,
    ::testing::Values(
        LineOrderCase{Buffer::mbs, "wr", Tick(836000), 1},
        LineOrderCase{Buffer::mbs, "wrr", Tick(1128000), 2},
        LineOrderCase{Buffer::mbs, "wrw", Tick(1112000), 2},
        LineOrderCase{Buffer::mbs, "wrwr", Tick(1412000), 3},
        LineOrderCase{Buffer::mbs, "rwr", Tick(1116000), 2},
        LineOrderCase{Buffer::mbs, "wwr", Tick(1120000), 2},
        LineOrderCase{Buffer::mbs, "wrrr", Tick(1420000), 3},
        LineOrderCase{Buffer::mbs, "wwrr", Tick(1412000), 3},
        LineOrderCase{Buffer::centaurOptimized, "wr", Tick(229000), 0},
        LineOrderCase{Buffer::centaurOptimized, "wrr", Tick(254500), 0},
        LineOrderCase{Buffer::centaurOptimized, "wrw", Tick(229000), 0},
        LineOrderCase{Buffer::centaurOptimized, "wrwr", Tick(235000), 0},
        LineOrderCase{Buffer::centaurOptimized, "rwr", Tick(183000), 0},
        LineOrderCase{Buffer::centaurOptimized, "wwr", Tick(268000), 0},
        LineOrderCase{Buffer::centaurOptimized, "wrrr", Tick(254500), 0},
        LineOrderCase{Buffer::centaurOptimized, "wwrr", Tick(293500), 0},
        LineOrderCase{Buffer::centaurConservative, "wr", Tick(213000), 0},
        LineOrderCase{Buffer::centaurConservative, "wrr", Tick(238500),
                      0},
        LineOrderCase{Buffer::centaurConservative, "wrw", Tick(230500),
                      0},
        LineOrderCase{Buffer::centaurConservative, "wrwr", Tick(277500),
                      0},
        LineOrderCase{Buffer::centaurConservative, "rwr", Tick(225500),
                      0},
        LineOrderCase{Buffer::centaurConservative, "wwr", Tick(252000),
                      0},
        LineOrderCase{Buffer::centaurConservative, "wrrr", Tick(264000),
                      0},
        LineOrderCase{Buffer::centaurConservative, "wwrr", Tick(277500),
                      0}),
    [](const ::testing::TestParamInfo<LineOrderCase> &info) {
        return label(info.param);
    });

} // namespace
