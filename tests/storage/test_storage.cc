/** @file Storage stack tests: devices, FIO, GPFS, pmem. */

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "storage/fio.hh"
#include "storage/flat_device.hh"
#include "storage/gpfs.hh"
#include "storage/hdd.hh"
#include "storage/pmem.hh"
#include "storage/slram.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::storage;

namespace
{

struct DevRig
{
    EventQueue eq;
    ClockDomain d{"d", 500};
    stats::StatGroup root{"root"};
};

Power8System::Params
mramSystem()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}},
               DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}}};
    return p;
}

/**
 * Run the pinned FIO mix (random 4 KiB, half reads, 1 us software
 * cost, default seed) at queue depth @p qd and check the final tick
 * and the read/write split.
 */
void
expectFio(EventQueue &eq, BlockDevice &dev, unsigned ops, unsigned qd,
          Tick tick, unsigned reads, unsigned writes)
{
    FioEngine::Params fp;
    fp.ops = ops;
    fp.readFraction = 0.5;
    fp.softwareOverhead = microseconds(1);
    fp.queueDepth = qd;
    auto r = FioEngine(fp).run(eq, dev);
    EXPECT_EQ(eq.curTick(), tick) << dev.describe() << " QD " << qd;
    EXPECT_EQ(r.readsDone, reads) << dev.describe() << " QD " << qd;
    EXPECT_EQ(r.writesDone, writes) << dev.describe() << " QD " << qd;
}

/** A queue depth and the final tick its run must reach. */
struct Pin
{
    unsigned qd;
    Tick tick;
};

// Every device's queueing, pinned: each run starts from a fresh rig
// or a freshly trained system, so the tick is the whole timeline.

TEST(StorageGolden, Hdd)
{
    for (const Pin &pin :
         {Pin{1, 864449066260ull}, Pin{32, 864386066260ull}}) {
        DevRig rig;
        HddDevice dev("hdd", rig.eq, rig.d, &rig.root, {});
        expectFio(rig.eq, dev, 64, pin.qd, pin.tick, 33, 31);
    }
}

TEST(StorageGolden, SasSsd)
{
    for (const Pin &pin :
         {Pin{1, 35030908800ull}, Pin{32, 4375363600ull}}) {
        DevRig rig;
        FlatDevice dev("ssd", rig.eq, rig.d, &rig.root,
                       FlatDevice::sasSsd());
        expectFio(rig.eq, dev, 400, pin.qd, pin.tick, 201, 199);
    }
}

TEST(StorageGolden, NvramOnPcie)
{
    for (const Pin &pin :
         {Pin{1, 10102000000ull}, Pin{32, 622280000ull}}) {
        DevRig rig;
        FlatDevice dev("nvram", rig.eq, rig.d, &rig.root,
                       FlatDevice::nvramOnPcie());
        expectFio(rig.eq, dev, 400, pin.qd, pin.tick, 201, 199);
    }
}

TEST(StorageGolden, FlashOnPcie)
{
    for (const Pin &pin :
         {Pin{1, 28142000000ull}, Pin{32, 1772280000ull}}) {
        DevRig rig;
        FlatDevice dev("flash", rig.eq, rig.d, &rig.root,
                       FlatDevice::flashOnPcie());
        expectFio(rig.eq, dev, 400, pin.qd, pin.tick, 201, 199);
    }
}

TEST(StorageGolden, MramOnPcie)
{
    for (const Pin &pin :
         {Pin{1, 3869200000ull}, Pin{32, 223880000ull}}) {
        DevRig rig;
        FlatDevice dev("mp", rig.eq, rig.d, &rig.root,
                       FlatDevice::mramOnPcie());
        expectFio(rig.eq, dev, 400, pin.qd, pin.tick, 201, 199);
    }
}

TEST(StorageGolden, Pmem)
{
    for (const Pin &pin : {Pin{1, 679008000ull}, Pin{4, 480008000ull}}) {
        Power8System sys(mramSystem());
        ASSERT_TRUE(sys.train());
        PmemBlockDevice dev("pmem", sys, &sys, {});
        expectFio(sys.eventq(), dev, 200, pin.qd, pin.tick, 96, 104);
    }
}

TEST(StorageGolden, Slram)
{
    for (const Pin &pin : {Pin{1, 480032000ull}, Pin{4, 281032000ull}}) {
        Power8System sys(mramSystem());
        ASSERT_TRUE(sys.train());
        SlramBlockDevice dev("slram", sys, &sys, {});
        expectFio(sys.eventq(), dev, 200, pin.qd, pin.tick, 96, 104);
    }
}

TEST(Hdd, RandomWritesCostSeekPlusRotation)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root, {});
    FioEngine::Params fp;
    fp.ops = 50;
    fp.readFraction = 0.0;
    fp.softwareOverhead = microseconds(6);
    auto r = FioEngine(fp).run(rig.eq, hdd);
    // Random 4K writes on a 7.2K disk: order 10+ ms each.
    EXPECT_GT(r.meanWriteLatencyUs, 5000);
    EXPECT_LT(r.totalIops, 200);
}

TEST(Hdd, SequentialIsFarFasterThanRandom)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root, {});
    int done = 0;
    Tick t0 = rig.eq.curTick();
    std::function<void(int)> next = [&](int i) {
        if (i >= 200)
            return;
        BlockRequest req;
        req.lba = std::uint64_t(i); // purely sequential
        req.isWrite = true;
        req.onDone = [&, i](const BlockRequest &) {
            ++done;
            next(i + 1);
        };
        hdd.submit(std::move(req));
    };
    next(0);
    while (done < 200 && rig.eq.step()) {
    }
    double iops = 200.0 / ticksToSeconds(rig.eq.curTick() - t0);
    EXPECT_GT(iops, 2000); // no seeks: transfer + overhead only
    EXPECT_GT(hdd.ioStats().writeOps.value(), 199.0);
}

TEST(Ssd, HitsFifteenKIopsClass)
{
    DevRig rig;
    FlatDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                   FlatDevice::sasSsd());
    FioEngine::Params fp;
    fp.ops = 500;
    fp.readFraction = 0.0;
    fp.softwareOverhead = microseconds(6);
    auto r = FioEngine(fp).run(rig.eq, ssd);
    EXPECT_GT(r.totalIops, 12000);
    EXPECT_LT(r.totalIops, 18000);
}

TEST(Pcie, ProtocolOverheadSetsLatencyFloor)
{
    DevRig rig;
    auto params = FlatDevice::mramOnPcie();
    FlatDevice dev("pcie", rig.eq, rig.d, &rig.root, params);
    FioEngine::Params fp;
    fp.ops = 200;
    fp.readFraction = 1.0;
    fp.softwareOverhead = 0;
    auto r = FioEngine(fp).run(rig.eq, dev);
    // Even with instant media, a PCIe op cannot beat the protocol.
    EXPECT_GT(r.meanReadLatencyUs,
              ticksToNs(params.commandOverhead) / 1000.0);
}

TEST(Pcie, NvramFasterThanFlash)
{
    DevRig rig;
    FlatDevice nvram("nvram", rig.eq, rig.d, &rig.root,
                     FlatDevice::nvramOnPcie());
    FlatDevice flash("flash", rig.eq, rig.d, &rig.root,
                     FlatDevice::flashOnPcie());
    FioEngine::Params fp;
    fp.ops = 200;
    fp.softwareOverhead = microseconds(9);
    auto rn = FioEngine(fp).run(rig.eq, nvram);
    auto rf = FioEngine(fp).run(rig.eq, flash);
    EXPECT_GT(rn.totalIops, rf.totalIops * 1.5);
    EXPECT_LT(rn.meanReadLatencyUs, rf.meanReadLatencyUs);
}

TEST(Pmem, BlockOpsTraverseSimulatedChannel)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice dev("pmem", sys, &sys, {});

    auto mbs_reads_before =
        sys.card()->mbs().mbsStats().reads.value();
    bool done = false;
    BlockRequest req;
    req.lba = 7;
    req.isWrite = false;
    req.onDone = [&](const BlockRequest &) { done = true; };
    dev.submit(std::move(req));
    while (!done && sys.eventq().step()) {
    }
    ASSERT_TRUE(done);
    // A 4 KiB block is 32 cache-line reads through MBS.
    EXPECT_EQ(sys.card()->mbs().mbsStats().reads.value()
                  - mbs_reads_before,
              32.0);
}

TEST(Pmem, WritesArePersistedWithFlush)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice dev("pmem", sys, &sys, {});

    bool done = false;
    BlockRequest req;
    req.lba = 3;
    req.isWrite = true;
    req.onDone = [&](const BlockRequest &) { done = true; };
    dev.submit(std::move(req));
    while (!done && sys.eventq().step()) {
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(sys.card()->mbs().mbsStats().flushes.value(), 1.0);
}

TEST(Pmem, DmiAttachBeatsPcieOnLatency)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice pmem("pmem", sys, &sys,
                         PmemBlockDevice::Params::forMram());
    FioEngine::Params fp;
    fp.ops = 300;
    fp.softwareOverhead = microseconds(4);
    auto r_dmi = FioEngine(fp).run(sys.eventq(), pmem);

    DevRig rig;
    FlatDevice mram_pcie("mp", rig.eq, rig.d, &rig.root,
                         FlatDevice::mramOnPcie());
    auto r_pcie = FioEngine(fp).run(rig.eq, mram_pcie);

    // Paper Figure 10: ~2.4x lower read, ~5x lower write latency.
    double read_ratio =
        r_pcie.meanReadLatencyUs / r_dmi.meanReadLatencyUs;
    double write_ratio =
        r_pcie.meanWriteLatencyUs / r_dmi.meanWriteLatencyUs;
    EXPECT_GT(read_ratio, 1.8);
    EXPECT_LT(read_ratio, 3.2);
    EXPECT_GT(write_ratio, 3.5);
    EXPECT_LT(write_ratio, 7.0);
}

TEST(Gpfs, DirectHddIsSeventyFiveIopsClass)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root, {});
    GpfsWriteCache gpfs("gpfs", rig.eq, rig.d, &rig.root, {},
                        nullptr, hdd);
    Rng rng(1);
    int done = 0;
    Tick t0 = rig.eq.curTick();
    std::function<void()> next = [&] {
        if (done >= 60)
            return;
        gpfs.appWrite(rng.below(hdd.capacityBlocks()), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < 60 && rig.eq.step()) {
    }
    double iops = 60.0 / ticksToSeconds(rig.eq.curTick() - t0);
    EXPECT_GT(iops, 50);
    EXPECT_LT(iops, 110);
}

TEST(Gpfs, CacheAggregatesIntoSequentialDestages)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root, {});
    FlatDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                   FlatDevice::sasSsd());
    GpfsWriteCache gpfs("gpfs", rig.eq, rig.d, &rig.root, {}, &ssd,
                        hdd);
    Rng rng(2);
    int done = 0;
    std::function<void()> next = [&] {
        if (done >= 1000)
            return;
        gpfs.appWrite(rng.below(1000000), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < 1000 && rig.eq.step()) {
    }
    // Destages happened, each covering many app writes.
    double destages = gpfs.gpfsStats().destages.value();
    EXPECT_GT(destages, 1.0);
    EXPECT_LT(destages, 1000.0 / 32.0);
    // And the disk saw large sequential writes, not 4K randoms.
    EXPECT_GT(hdd.ioStats().writeOps.value(), 0.0);
}

TEST(Gpfs, MramCacheReachesTable4Class)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice pmem("pmem", sys, &sys, {});
    HddDevice hdd("hdd", sys.eventq(), sys.nestDomain(), &sys, {});
    GpfsWriteCache gpfs("gpfs", sys.eventq(), sys.nestDomain(), &sys,
                        {}, &pmem, hdd);
    Rng rng(3);
    int done = 0;
    Tick t0 = sys.eventq().curTick();
    std::function<void()> next = [&] {
        if (done >= 1500)
            return;
        gpfs.appWrite(rng.below(60000), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < 1500 && sys.eventq().step()) {
    }
    double iops = 1500.0 / ticksToSeconds(sys.eventq().curTick() - t0);
    // Table 4: 125K IOPS, 8.3x over the 15K SSD.
    EXPECT_GT(iops, 100000);
    EXPECT_LT(iops, 160000);
}

TEST(Slram, FasterThanPmemButNoFlush)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice pmem("pmem", sys, &sys, {});
    SlramBlockDevice slram("slram", sys, &sys, {});

    FioEngine::Params fp;
    fp.ops = 120;
    fp.readFraction = 0.0;
    fp.softwareOverhead = microseconds(1);
    auto rp = FioEngine(fp).run(sys.eventq(), pmem);
    auto rs = FioEngine(fp).run(sys.eventq(), slram);

    // The raw path skips the flush barrier and the thicker driver.
    EXPECT_LT(rs.meanWriteLatencyUs, rp.meanWriteLatencyUs);
    // And it issues no flush commands at all.
    EXPECT_EQ(sys.card()->mbs().mbsStats().flushes.value(),
              double(rp.writesDone));
}

TEST(Slram, AbortedLinesFailTheRequest)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    SlramBlockDevice dev("slram", sys, &sys, {});
    bool done = false;
    bool failed = false;
    BlockRequest req;
    req.lba = 5;
    req.isWrite = true;
    req.onDone = [&](const BlockRequest &r) {
        done = true;
        failed = r.failed;
    };
    dev.submit(std::move(req));
    // The driver cost has passed and the 32 line writes are out.
    sys.eventq().run(768000);
    ASSERT_GT(sys.port().inFlight(), 0u);
    sys.port().abortInFlight();
    while (!done && sys.eventq().step()) {
    }
    ASSERT_TRUE(done);
    EXPECT_TRUE(failed);
    EXPECT_EQ(dev.ioStats().failedOps.value(), 1.0);
    EXPECT_EQ(dev.ioStats().writeOps.value(), 0.0);
}

TEST(Fio, ReadFractionRespected)
{
    DevRig rig;
    FlatDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                   FlatDevice::sasSsd());
    FioEngine::Params fp;
    fp.ops = 1000;
    fp.readFraction = 0.7;
    auto r = FioEngine(fp).run(rig.eq, ssd);
    EXPECT_EQ(r.readsDone + r.writesDone, 1000u);
    EXPECT_NEAR(double(r.readsDone) / 1000.0, 0.7, 0.05);
}

TEST(Fio, QueueDepthRaisesThroughput)
{
    DevRig rig;
    FlatDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                   FlatDevice::sasSsd());
    FioEngine::Params qd1;
    qd1.ops = 500;
    FioEngine::Params qd4 = qd1;
    qd4.queueDepth = 4;
    auto r1 = FioEngine(qd1).run(rig.eq, ssd);
    auto r4 = FioEngine(qd4).run(rig.eq, ssd);
    EXPECT_GT(r4.totalIops, r1.totalIops * 2);
}

} // namespace
