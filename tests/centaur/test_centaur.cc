/** @file Centaur baseline model tests. */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::dmi;

namespace
{

Power8System::Params
centaurSystem(centaur::CentaurModel::Config cfg)
{
    Power8System::Params p;
    p.buffer = BufferKind::centaur;
    p.centaurConfig = cfg;
    p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    return p;
}

TEST(Centaur, ServesReadsAndWrites)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());

    CacheLine line;
    line.fill(0x42);
    sys.port().write(0x8000, line, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    bool ok = false;
    sys.port().read(0x8000, [&](const HostOpResult &r) {
        ok = true;
        EXPECT_EQ(r.data[10], 0x42);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(ok);
}

TEST(Centaur, CacheMakesRepeatedReadsFaster)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());
    auto *buf = sys.centaurBuffer();
    ASSERT_NE(buf, nullptr);

    Tick first = 0, second = 0;
    sys.port().read(0x100000, [&](const HostOpResult &r) {
        first = r.dataAt - r.issuedAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    sys.port().read(0x100000, [&](const HostOpResult &r) {
        second = r.dataAt - r.issuedAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());

    EXPECT_LT(second, first);
    EXPECT_GE(buf->centaurStats().cacheHits.value(), 1.0);
}

TEST(Centaur, PrefetchFillsNextLine)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());
    auto *buf = sys.centaurBuffer();

    sys.port().read(0x200000, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_GE(buf->centaurStats().prefetches.value(), 1.0);

    // The next line should now hit.
    Tick lat = 0;
    sys.port().read(0x200000 + 128, [&](const HostOpResult &r) {
        lat = r.dataAt - r.issuedAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_GE(buf->centaurStats().cacheHits.value(), 1.0);
}

TEST(Centaur, ReadOfLastLineDoesNotPrefetchPastChannel)
{
    Power8System::Params p =
        centaurSystem(centaur::CentaurModel::optimized());
    p.dimms = {DimmSpec{mem::MemTech::dram, 64 * MiB, {}, {}}};
    Power8System sys(p);
    ASSERT_TRUE(sys.train());
    auto *buf = sys.centaurBuffer();

    // The line after the last one lies past the channel: no
    // prefetch, and the read itself completes normally.
    bool ok = false;
    sys.port().read(64 * MiB - 128, [&](const HostOpResult &r) {
        ok = !r.failed;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(ok);
    EXPECT_EQ(buf->centaurStats().prefetches.value(), 0.0);

    // Further from the end, the next line is prefetched as usual.
    sys.port().read(64 * MiB - 512, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(buf->centaurStats().prefetches.value(), 1.0);
}

TEST(Centaur, ConfigsOrderLatencies)
{
    // The Table 2 knob presets must produce strictly increasing
    // memory latency.
    double lat[4];
    centaur::CentaurModel::Config cfgs[4] = {
        centaur::CentaurModel::optimized(),
        centaur::CentaurModel::balanced(),
        centaur::CentaurModel::conservative(),
        centaur::CentaurModel::slowest(),
    };
    for (int i = 0; i < 4; ++i) {
        Power8System sys(centaurSystem(cfgs[i]));
        ASSERT_TRUE(sys.train());
        lat[i] = sys.measureReadLatencyNs();
    }
    EXPECT_LT(lat[0], lat[1]);
    EXPECT_LT(lat[1], lat[2]);
    EXPECT_LT(lat[2], lat[3]);
}

TEST(Centaur, UnsupportedCommandsCompleteAsNoops)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());
    LogControl::warnings() = false;
    bool done = false;
    // The in-line accelerated ops are ConTutto-only FPGA logic; the
    // ASIC must still free the tag.
    CacheLine line{};
    sys.port().minStore(0x9000, line,
                        [&](const HostOpResult &) { done = true; });
    ASSERT_TRUE(sys.runUntilIdle());
    LogControl::warnings() = true;
    EXPECT_TRUE(done);
    EXPECT_EQ(
        sys.centaurBuffer()->centaurStats().unsupportedCommands
            .value(),
        1.0);
}

TEST(Centaur, FlushDrainsOlderWrites)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());

    // Fire a burst of writes and a flush right behind them: the
    // fence must not complete before every older write has reached
    // DDR, or the pmem durability story is a lie on the baseline.
    unsigned writes_done = 0;
    CacheLine line;
    line.fill(0x5c);
    for (unsigned i = 0; i < 8; ++i)
        sys.port().write(0x10000 + i * 128, line,
                         [&](const HostOpResult &) {
                             ++writes_done;
                         });
    bool flush_done = false;
    unsigned writes_at_flush = 0;
    sys.port().flush([&](const HostOpResult &) {
        flush_done = true;
        writes_at_flush = writes_done;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(flush_done);
    EXPECT_EQ(writes_at_flush, 8u);
    EXPECT_EQ(sys.centaurBuffer()->centaurStats().flushes.value(),
              1.0);
    EXPECT_EQ(sys.centaurBuffer()
                  ->centaurStats().unsupportedCommands.value(),
              0.0);
}

TEST(Centaur, ReadAfterWriteSeesNewData)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());

    // Warm the cache so the read would hit and try to pass the
    // write.
    sys.port().read(0x40000, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());

    CacheLine line;
    line.fill(0xD7);
    bool read_done = false;
    sys.port().write(0x40000, line, nullptr);
    // Issue the read immediately, without waiting for the write.
    sys.port().read(0x40000, [&](const HostOpResult &r) {
        read_done = true;
        EXPECT_EQ(r.data[3], 0xD7);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(read_done);
}

TEST(CentaurOrdering, UnsupportedOpBehindWriteReleasesFlush)
{
    // The in-line op parks behind the write to its line, so the
    // flush counts it among its older writes; completing it as a
    // no-op must release the flush too.
    Power8System sys(
        centaurSystem(centaur::CentaurModel::conservative()));
    ASSERT_TRUE(sys.train());
    LogControl::warnings() = false;
    unsigned done = 0;
    auto count = [&](const HostOpResult &) { ++done; };
    CacheLine line;
    line.fill(0x11);
    sys.port().write(0x9000, line, count);
    sys.port().minStore(0x9000, line, count);
    sys.port().flush(count);
    bool idle = sys.runUntilIdle(milliseconds(1));
    LogControl::warnings() = true;
    EXPECT_TRUE(idle);
    EXPECT_EQ(done, 3u);
}

class CentaurFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>>
{};

TEST_P(CentaurFuzz, SameLineStreamMatchesReference)
{
    // Random writes, partial writes, reads and flushes to a few lines,
    // so commands keep landing behind older ones to the same line.
    // Each read must return the line as it stood when the read was
    // issued, and the whole region must match at the end.
    auto [seed, cache] = GetParam();
    Power8System sys(centaurSystem(
        cache ? centaur::CentaurModel::optimized()
              : centaur::CentaurModel::conservative()));
    ASSERT_TRUE(sys.train());
    Rng rng(seed);

    constexpr unsigned lines = 24; // small: frequent conflicts
    std::vector<CacheLine> ref(lines);
    for (unsigned li = 0; li < lines; ++li)
        sys.functionalRead(Addr(li) * 128, 128, ref[li].data());

    unsigned issued = 0, completed = 0;
    auto count = [&](const HostOpResult &r) {
        EXPECT_FALSE(r.failed);
        ++completed;
    };
    for (int op = 0; op < 150; ++op) {
        unsigned li = unsigned(rng.below(lines));
        Addr addr = Addr(li) * 128;
        CacheLine data;
        for (auto &b : data)
            b = std::uint8_t(rng.next());

        ++issued;
        switch (rng.below(4)) {
          case 0:
            ref[li] = data;
            sys.port().write(addr, data, count);
            break;
          case 1: {
            ByteEnable en;
            for (int b = 0; b < 128; ++b)
                if (rng.chance(0.4))
                    en.set(b);
            for (int b = 0; b < 128; ++b)
                if (en[b])
                    ref[li][b] = data[b];
            sys.port().partialWrite(addr, data, en, count);
            break;
          }
          case 2:
            sys.port().read(addr, [&, op, want = ref[li]](
                                      const HostOpResult &r) {
                EXPECT_EQ(r.data, want) << "read op " << op;
                count(r);
            });
            break;
          default:
            sys.port().flush(count);
            break;
        }
        if (rng.chance(0.1)) {
            ASSERT_TRUE(sys.runUntilIdle(milliseconds(1)));
        }
    }
    ASSERT_TRUE(sys.runUntilIdle(milliseconds(1)));
    EXPECT_EQ(completed, issued);

    for (unsigned li = 0; li < lines; ++li) {
        CacheLine out;
        sys.functionalRead(Addr(li) * 128, 128, out.data());
        EXPECT_EQ(out, ref[li]) << "line " << li;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CentaurFuzz,
    ::testing::Combine(::testing::Values(101, 202, 303, 404, 505, 606),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param))
            + (std::get<1>(info.param) ? "_optimized" : "_conservative");
    });

} // namespace
