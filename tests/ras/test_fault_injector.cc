/** @file Fault-injection registry and campaign-planning tests. */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "dmi/link.hh"
#include "mem/mem_image.hh"
#include "ras/fault_injector.hh"
#include "sim/event.hh"

using namespace contutto;
using namespace contutto::ras;

namespace
{

struct InjectorBench
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    stats::StatGroup root{"root"};
    mem::MemImage image{4 * MiB};
    FaultInjector inj;

    explicit InjectorBench(std::uint64_t seed = 77)
        : inj("inj", eq, nest, &root, seed)
    {
        inj.addMemory(&image);
    }
};

bool
samePlan(const std::vector<FaultEvent> &a,
         const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].when != b[i].when || a[i].kind != b[i].kind
            || a[i].target != b[i].target || a[i].addr != b[i].addr
            || a[i].bit != b[i].bit || a[i].count != b[i].count)
            return false;
    }
    return true;
}

TEST(FaultInjector, ImmediateBitFlipIsVisibleToVerify)
{
    InjectorBench b;
    b.image.write64(0x1000, 0xF0F0F0F0F0F0F0F0ull);

    FaultEvent ev;
    ev.kind = FaultKind::dramBitFlip;
    ev.addr = 0x1000;
    ev.bit = 12;
    b.inj.inject(ev);

    EXPECT_EQ(b.inj.injected(FaultKind::dramBitFlip), 1u);
    EXPECT_EQ(b.inj.history().size(), 1u);
    mem::EccScan scan = b.image.verify(0x1000, 8);
    EXPECT_EQ(scan.corrected, 1u);
    EXPECT_EQ(b.image.read64(0x1000), 0xF0F0F0F0F0F0F0F0ull);
}

TEST(FaultInjector, ScheduledFaultFiresAtItsTick)
{
    InjectorBench b;
    b.image.write64(0, 1);

    FaultEvent ev;
    ev.when = microseconds(5);
    ev.kind = FaultKind::dramBitFlip;
    ev.addr = 0;
    ev.bit = 0;
    b.inj.schedule(ev);

    b.eq.run(microseconds(4));
    EXPECT_EQ(b.inj.injected(FaultKind::dramBitFlip), 0u);
    b.eq.run(microseconds(6));
    EXPECT_EQ(b.inj.injected(FaultKind::dramBitFlip), 1u);
}

TEST(FaultInjector, CampaignIsDeterministicPerSeed)
{
    FaultInjector::CampaignSpec spec;
    spec.duration = microseconds(50);
    spec.bitFlips = 16;
    spec.memBase = 0x10000;
    spec.memSize = 64 * KiB;

    InjectorBench a(123), b(123), c(456);
    auto pa = a.inj.planCampaign(spec);
    auto pb = b.inj.planCampaign(spec);
    auto pc = c.inj.planCampaign(spec);

    EXPECT_TRUE(samePlan(pa, pb))
        << "same seed and spec must give the identical plan";
    EXPECT_FALSE(samePlan(pa, pc))
        << "a different seed should shuffle the plan";
}

TEST(FaultInjector, CampaignFlipsDistinctWordsInsideTheRegion)
{
    InjectorBench b(99);
    FaultInjector::CampaignSpec spec;
    spec.duration = microseconds(10);
    spec.bitFlips = 64;
    spec.memBase = 0x8000;
    spec.memSize = 4 * KiB; // 512 words for 64 flips
    auto plan = b.inj.planCampaign(spec);

    ASSERT_EQ(plan.size(), 64u);
    std::set<std::pair<unsigned, Addr>> words;
    Tick last = 0;
    for (const FaultEvent &ev : plan) {
        EXPECT_EQ(ev.kind, FaultKind::dramBitFlip);
        EXPECT_GE(ev.addr, spec.memBase);
        EXPECT_LT(ev.addr, spec.memBase + spec.memSize);
        EXPECT_EQ(ev.addr % 8, 0u);
        EXPECT_LT(ev.bit, 64u);
        EXPECT_LE(ev.when, spec.start + spec.duration);
        EXPECT_GE(ev.when, last) << "plan must be time sorted";
        last = ev.when;
        words.insert({ev.target, ev.addr});
    }
    EXPECT_EQ(words.size(), 64u) << "every flip in a distinct word";
}

TEST(FaultInjector, CampaignBitFlipsAllStayCorrectable)
{
    InjectorBench b(7);
    // Populate the region so pages exist and hold known data.
    for (Addr a = 0; a < 64 * KiB; a += 8)
        b.image.write64(a, a * 0x9E3779B97F4A7C15ull);

    FaultInjector::CampaignSpec spec;
    spec.duration = microseconds(20);
    spec.bitFlips = 32;
    spec.memSize = 64 * KiB;
    b.inj.runCampaign(spec);
    b.eq.run();

    EXPECT_EQ(b.inj.injected(FaultKind::dramBitFlip), 32u);
    mem::EccScan scan = b.image.verify(0, 64 * KiB);
    EXPECT_EQ(scan.corrected, 32u)
        << "distinct words keep every fault single-bit";
    EXPECT_EQ(scan.uncorrectable, 0u);
    for (Addr a = 0; a < 64 * KiB; a += 8)
        ASSERT_EQ(b.image.read64(a), a * 0x9E3779B97F4A7C15ull);
}

/** A scriptable power target that records what it was told. */
struct FakeDomain : PowerTarget
{
    unsigned cuts = 0;
    unsigned restores = 0;
    std::vector<Tick> dips;

    void powerCut() override { ++cuts; }
    void powerRestore() override { ++restores; }
    void brownout(Tick dip) override { dips.push_back(dip); }
};

TEST(FaultInjector, PowerCampaignPairsEveryCutWithALaterRestore)
{
    InjectorBench b(31);
    FakeDomain dom;
    b.inj.addPowerTarget(&dom);

    FaultInjector::CampaignSpec spec;
    spec.duration = microseconds(200);
    spec.powerCuts = 4;
    spec.outageMin = microseconds(10);
    spec.outageMax = microseconds(40);
    spec.brownouts = 3;
    spec.brownoutMin = microseconds(1);
    spec.brownoutMax = microseconds(5);
    auto plan = b.inj.planCampaign(spec);

    // Pair cuts and restores per target in plan order; every cut
    // must have a restore after a bounded outage.
    std::vector<Tick> cut_times;
    unsigned cuts = 0, restores = 0, dips = 0;
    for (const FaultEvent &ev : plan) {
        switch (ev.kind) {
          case FaultKind::powerCut:
            ++cuts;
            cut_times.push_back(ev.when);
            break;
          case FaultKind::powerRestore:
            ++restores;
            break;
          case FaultKind::brownout:
            ++dips;
            EXPECT_GE(ev.duration, spec.brownoutMin);
            EXPECT_LE(ev.duration, spec.brownoutMax);
            break;
          default:
            ADD_FAILURE() << "unexpected kind in plan";
        }
    }
    EXPECT_EQ(cuts, 4u);
    EXPECT_EQ(restores, 4u);
    EXPECT_EQ(dips, 3u);
    for (Tick t : cut_times)
        EXPECT_LE(t, spec.start + spec.duration);

    // Same seed, same spec: identical power schedule.
    InjectorBench b2(31);
    FakeDomain dom2;
    b2.inj.addPowerTarget(&dom2);
    EXPECT_TRUE(samePlan(plan, b2.inj.planCampaign(spec)));
}

TEST(FaultInjector, PowerFaultsReachTheTargetAndCount)
{
    InjectorBench b(13);
    FakeDomain dom;
    b.inj.addPowerTarget(&dom);

    FaultInjector::CampaignSpec spec;
    spec.duration = microseconds(100);
    spec.powerCuts = 2;
    spec.brownouts = 1;
    b.inj.runCampaign(spec);
    b.eq.run();

    EXPECT_EQ(dom.cuts, 2u);
    EXPECT_EQ(dom.restores, 2u);
    ASSERT_EQ(dom.dips.size(), 1u);
    EXPECT_GE(dom.dips[0], spec.brownoutMin);
    EXPECT_LE(dom.dips[0], spec.brownoutMax);
    EXPECT_EQ(b.inj.injected(FaultKind::powerCut), 2u);
    EXPECT_EQ(b.inj.injected(FaultKind::powerRestore), 2u);
    EXPECT_EQ(b.inj.injected(FaultKind::brownout), 1u);
    EXPECT_EQ(b.inj.injectorStats().powerCuts.value(), 2.0);
    EXPECT_EQ(b.inj.injectorStats().domainRestores.value(), 2.0);
    EXPECT_EQ(b.inj.injectorStats().brownouts.value(), 1.0);
}

TEST(FaultInjector, ChannelFaultsRideTheRealLink)
{
    InjectorBench b;
    ClockDomain fabric{"fabric", 4000};
    dmi::DmiChannel down("down", b.eq, fabric, &b.root,
                         dmi::DmiChannel::Params{14, 125, 0.0, 11});
    dmi::DmiChannel up("up", b.eq, fabric, &b.root,
                       dmi::DmiChannel::Params{21, 125, 0.0, 12});
    dmi::HostLink host("host", b.eq, b.nest, &b.root, {}, down, up);
    dmi::BufferLink buffer("buffer", b.eq, fabric, &b.root, {}, up,
                           down);
    unsigned idx = b.inj.addChannel(&down);

    std::vector<std::uint8_t> tags;
    buffer.onFrame =
        [&](const dmi::DownFrame &f) { tags.push_back(f.tag); };

    FaultEvent corrupt;
    corrupt.kind = FaultKind::frameCorrupt;
    corrupt.target = idx;
    b.inj.inject(corrupt);
    FaultEvent drop;
    drop.kind = FaultKind::frameDrop;
    drop.target = idx;
    drop.when = microseconds(10);
    b.inj.schedule(drop);

    for (std::uint8_t t = 0; t < 3; ++t) {
        OneShotEvent::schedule(b.eq, microseconds(10) * Tick(t), [&,
                                                                  t] {
            dmi::DownFrame f;
            f.type = dmi::FrameType::command;
            f.cmdType = dmi::CmdType::read128;
            f.tag = t;
            host.sendFrame(f);
        });
    }
    b.eq.run(microseconds(40));

    // Both injected faults were absorbed by the replay protocol.
    ASSERT_EQ(tags.size(), 3u);
    for (std::uint8_t t = 0; t < 3; ++t)
        EXPECT_EQ(tags[t], t);
    EXPECT_EQ(down.channelStats().framesCorrupted.value(), 1.0);
    EXPECT_GE(down.channelStats().framesDropped.value(), 1.0);
    EXPECT_EQ(b.inj.injected(FaultKind::frameCorrupt), 1u);
    EXPECT_EQ(b.inj.injected(FaultKind::frameDrop), 1u);
    EXPECT_GE(host.linkStats().replaysTriggered.value(), 2.0);
}

} // namespace
