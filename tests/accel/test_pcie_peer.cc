/** @file Card-to-card PCIe peer transfer tests. */

#include <gtest/gtest.h>

#include "accel/pcie_peer.hh"
#include "cpu/multi_slot.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

/**
 * Two ConTutto cards in the paper's 2-card configuration. On one
 * shard the link is unbound: both cards share shard 0's queue and
 * lines arrive at their exact tick. On more shards the link is
 * split across the two cards' shards.
 */
struct TwoCardRig
{
    MultiSlotSystem socket;
    fpga::ContuttoCard *cardA;
    fpga::ContuttoCard *cardB;
    PciePeerLink link;
    /** The last transfer's completion tick, as seen by the done
     *  callback on the engine's shard. */
    Tick doneAt = 0;

    explicit TwoCardRig(unsigned shards = 1, bool parallel = true)
        : socket(makeParams(shards, parallel)),
          cardA(socket.channelInSlot(0)->card()),
          cardB(socket.channelInSlot(2)->card()),
          link("pcie", socket.channelQueue(0), cardA->clockDomain(),
               &socket, {}, *cardA, *cardB)
    {
        if (shards > 1)
            link.bindShards(socket.executor(),
                            socket.shardOfChannel(0),
                            socket.shardOfChannel(1));
    }

    static MultiSlotSystem::Params
    makeParams(unsigned shards, bool parallel)
    {
        MultiSlotSystem::Params p;
        ChannelParams ch;
        ch.dimms = {DimmSpec{mem::MemTech::dram, 128 * MiB, {}, {}},
                    DimmSpec{mem::MemTech::dram, 128 * MiB, {}, {}}};
        p.slots[0] = SlotSpec{SlotKind::contutto, ch};
        p.slots[1] = SlotSpec{SlotKind::empty, {}};
        p.slots[2] = SlotSpec{SlotKind::contutto, ch};
        p.slots[3] = SlotSpec{SlotKind::empty, {}};
        for (unsigned s = 4; s < 8; ++s)
            p.slots[s] = SlotSpec{SlotKind::empty, {}};
        p.shards = shards;
        p.parallelExec = parallel;
        return p;
    }

    /** Transfer to completion; false when it never finished. */
    bool
    runTransfer(unsigned src_card, Addr src, Addr dst,
                std::uint64_t bytes)
    {
        bool done = false;
        // Card A sits on channel 0, card B on channel 1.
        EventQueue &engine = socket.channelQueue(src_card);
        link.transfer(src_card, src, dst, bytes, [&] {
            done = true;
            doneAt = engine.curTick();
        });
        return socket.executor()->runUntilIdle([&done] { return done; },
                                               milliseconds(100));
    }
};

TEST(PciePeer, MovesDataBetweenCards)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());

    std::vector<std::uint8_t> blob(32 * 1024);
    Rng rng(7);
    for (auto &b : blob)
        b = std::uint8_t(rng.next());
    rig.socket.channelInSlot(0)->functionalWrite(0x4000, blob.size(),
                                                 blob.data());

    ASSERT_TRUE(rig.runTransfer(0, 0x4000, 0x9000, blob.size()));

    std::vector<std::uint8_t> out(blob.size());
    rig.socket.channelInSlot(2)->functionalRead(0x9000, out.size(),
                                                out.data());
    EXPECT_EQ(out, blob);
    EXPECT_EQ(rig.link.peerStats().transfers.value(), 1.0);
}

TEST(PciePeer, ReverseDirectionWorks)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());
    std::vector<std::uint8_t> blob(4096, 0xEE);
    rig.socket.channelInSlot(2)->functionalWrite(0, blob.size(),
                                                 blob.data());
    ASSERT_TRUE(rig.runTransfer(1, 0, 0x2000, blob.size()));
    std::vector<std::uint8_t> out(blob.size());
    rig.socket.channelInSlot(0)->functionalRead(0x2000, out.size(),
                                                out.data());
    EXPECT_EQ(out, blob);
}

TEST(PciePeer, DoesNotBurdenTheMemoryBus)
{
    // The paper's point: the transfer must not produce DMI frames.
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());

    auto frames_before =
        rig.socket.channelInSlot(0)->upChannel().channelStats()
            .framesCarried.value()
        + rig.socket.channelInSlot(2)->upChannel().channelStats()
              .framesCarried.value();

    ASSERT_TRUE(rig.runTransfer(0, 0, 0x8000, 64 * 1024));

    auto frames_after =
        rig.socket.channelInSlot(0)->upChannel().channelStats()
            .framesCarried.value()
        + rig.socket.channelInSlot(2)->upChannel().channelStats()
              .framesCarried.value();
    EXPECT_EQ(frames_after, frames_before);
}

TEST(PciePeer, ThroughputBoundByPcieBandwidth)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());
    const std::uint64_t bytes = 4 * MiB;
    Tick t0 = rig.socket.channelQueue(0).curTick();
    ASSERT_TRUE(rig.runTransfer(0, 0, 0, bytes));
    double secs = ticksToSeconds(rig.doneAt - t0);
    double gbps = double(bytes) / secs / 1e9;
    // Gen3 x8 class: most of 6.4 GB/s, never more.
    EXPECT_GT(gbps, 4.5);
    EXPECT_LT(gbps, 6.5);
}

TEST(PciePeerSharded, SplitLinkMovesDataAndStaysDeterministic)
{
    std::vector<std::uint8_t> blob(32 * 1024);
    Rng rng(7);
    for (auto &b : blob)
        b = std::uint8_t(rng.next());

    // The same transfer on the serial fallback and on 2 worker
    // threads must complete at the same tick with the same executor
    // message trace — the link's cross-shard hops are part of the
    // deterministic protocol, not a source of timing noise.
    struct Run
    {
        Tick doneAt;
        std::uint64_t messages;
        std::vector<std::uint8_t> out;
        double transfers;
    };
    auto once = [&](bool parallel) {
        TwoCardRig rig(2, parallel);
        EXPECT_TRUE(rig.socket.trainAll());
        rig.socket.channelInSlot(0)->functionalWrite(
            0x4000, blob.size(), blob.data());
        Run r;
        EXPECT_TRUE(rig.runTransfer(0, 0x4000, 0x9000, blob.size()));
        r.doneAt = rig.doneAt;
        r.messages = rig.socket.executor()->counters().messages;
        r.out.resize(blob.size());
        rig.socket.channelInSlot(2)->functionalRead(
            0x9000, r.out.size(), r.out.data());
        r.transfers = rig.link.peerStats().transfers.value();
        return r;
    };

    const Run serial = once(false);
    const Run parallel = once(true);

    EXPECT_EQ(serial.out, blob);
    EXPECT_EQ(parallel.out, blob);
    EXPECT_EQ(serial.transfers, 1.0);
    EXPECT_EQ(parallel.transfers, 1.0);
    EXPECT_GT(serial.doneAt, Tick(0));
    EXPECT_EQ(serial.doneAt, parallel.doneAt);
    // Lines crossed the link as executor messages, identically.
    EXPECT_GT(serial.messages, 0u);
    EXPECT_EQ(serial.messages, parallel.messages);
}

TEST(PciePeerSharded, ReverseDirectionCrossesBackToItsShard)
{
    TwoCardRig rig(2, true);
    ASSERT_TRUE(rig.socket.trainAll());
    std::vector<std::uint8_t> blob(4096, 0xEE);
    rig.socket.channelInSlot(2)->functionalWrite(0, blob.size(),
                                                 blob.data());
    EXPECT_TRUE(rig.runTransfer(1, 0, 0x2000, blob.size()));
    EXPECT_GT(rig.doneAt, Tick(0));
    std::vector<std::uint8_t> out(blob.size());
    rig.socket.channelInSlot(0)->functionalRead(0x2000, out.size(),
                                                out.data());
    EXPECT_EQ(out, blob);
}

TEST(PciePeer, CardMemoryStillServesHostDuringTransfer)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());

    bool transfer_done = false;
    rig.link.transfer(0, 0, 0x100000, 1 * MiB,
                      [&] { transfer_done = true; });
    // Meanwhile the host keeps using card A over DMI.
    int host_reads = 0;
    auto &port = rig.socket.channelInSlot(0)->port();
    std::function<void()> chase = [&] {
        if (host_reads >= 50)
            return;
        port.read(Addr(host_reads) * 4096,
                  [&](const HostOpResult &) {
                      ++host_reads;
                      chase();
                  });
    };
    chase();
    EXPECT_TRUE(rig.socket.executor()->runUntilIdle(
        [&] { return transfer_done && host_reads >= 50; },
        milliseconds(100)));
    EXPECT_TRUE(transfer_done);
    EXPECT_EQ(host_reads, 50);
}

} // namespace
