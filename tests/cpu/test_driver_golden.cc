/**
 * @file
 * Golden outputs of the three traffic drivers.
 *
 * CoreModel, TraceReplayer and TimedTraceReplayer each run once in
 * full detail and once sampled. Every Result field is pinned, plus an
 * FNV-1a digest of the system's stats JSON (the "eventq" groups left
 * out, so a change in how many events a trip takes keeps the digest)
 * and, where a run captures, the checksum of the captured trace. Any
 * change to the memory-trip path that moves one simulated byte fails
 * here.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cpu/cache_hierarchy.hh"
#include "cpu/core_model.hh"
#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "sim/checkpoint.hh"
#include "trace/capture.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"
#include "workloads/spec.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

Power8System::Params
smallCard()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

sim::SamplingConfig
goldenSampling()
{
    sim::SamplingConfig cfg;
    cfg.enabled = true;
    cfg.warmupUnits = 16;
    cfg.windowUnits = 64;
    cfg.periodUnits = 512;
    return cfg;
}

/** FNV-1a over every stat's JSON, depth-first in registration
 *  order, skipping the event queue's own bookkeeping. */
std::uint64_t
statsDigest(const stats::StatGroup &root)
{
    std::string text;
    auto walk = [&](auto &self, const stats::StatGroup &g,
                    const std::string &prefix) -> void {
        if (g.groupName() == "eventq")
            return;
        const std::string path = prefix.empty()
            ? g.groupName()
            : prefix + "." + g.groupName();
        for (const stats::StatBase *s : g.ownStats()) {
            std::ostringstream os;
            s->json(os);
            text += path + "." + s->name() + ' ' + os.str() + '\n';
        }
        for (const stats::StatGroup *c : g.children())
            self(self, *c, path);
    };
    walk(walk, root, "");
    return ckpt::fnv1a(text.data(), text.size());
}

template <typename Driver, typename... Input>
typename Driver::Result
runToEnd(Power8System &sys, Driver &driver, const Input &...input)
{
    bool finished = false;
    typename Driver::Result result;
    driver.start(input..., [&](const typename Driver::Result &r) {
        result = r;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    EXPECT_TRUE(finished);
    return result;
}

struct CoreOutcome
{
    CoreModel::Result result;
    std::uint64_t digest = 0;
    std::uint64_t captureChecksum = 0;
};

CoreOutcome
runMcf(bool sampled)
{
    const std::string path = ::testing::TempDir() + "golden_core"
        + (sampled ? "_sampled" : "") + ".bin";
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    ClockDomain core("core", 250);
    trace::CaptureSink sink(path);
    CoreModel::Params cp;
    cp.instructions = 200000;
    cp.nestOverhead = sys.params().nestOverhead;
    cp.capture = &sink;
    if (sampled)
        cp.sampler = &sys.enableSampling(goldenSampling(), 7);
    WorkloadProfile mcf;
    for (const WorkloadProfile &p : workloads::specCint2006())
        if (p.name == "429.mcf")
            mcf = p;
    CoreModel model("core.mcf", sys.eventq(), core, &sys, mcf, cp,
                    sys.port());
    CoreOutcome out;
    out.result = runToEnd(sys, model);
    sink.close();
    out.captureChecksum = sink.checksum();
    out.digest = statsDigest(sys);
    return out;
}

TEST(DriverGolden, CoreModelMcfDetailed)
{
    CoreOutcome o = runMcf(false);
    EXPECT_EQ(o.result.runtime, Tick(341196000));
    EXPECT_EQ(o.result.instructions, 200000u);
    EXPECT_EQ(o.result.misses, 6518u);
    EXPECT_EQ(o.result.cpi, 6.8239200000000002);
    EXPECT_EQ(o.result.ips, 586173343.18104553);
    EXPECT_EQ(o.digest, 14567698449828230548ull);
    EXPECT_EQ(o.captureChecksum, 5362920260836647281ull);
}

TEST(DriverGolden, CoreModelMcfSampled)
{
    CoreOutcome o = runMcf(true);
    EXPECT_EQ(o.result.runtime, Tick(344088511));
    EXPECT_EQ(o.result.instructions, 200000u);
    EXPECT_EQ(o.result.misses, 6518u);
    EXPECT_EQ(o.result.cpi, 6.8817702199999999);
    EXPECT_EQ(o.result.ips, 581245794.63218403);
    EXPECT_EQ(o.digest, 7707776692154080603ull);
    EXPECT_EQ(o.captureChecksum, 2789656055751139571ull);
}

struct WindowOutcome
{
    TraceReplayer::Result result;
    std::uint64_t digest = 0;
};

WindowOutcome
runWindow(bool withCaches, bool sampled)
{
    MemTrace mem = MemTrace::synthesize(20000, nanoseconds(20),
                                        256 * KiB, 0.3, 0.05, 99);
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    ClockDomain core("core", 250);
    // Small caches, so dirty L3 victims (zero-overhead writeback
    // trips) show up within a short trace.
    CacheHierarchy::Params cachep;
    cachep.l1 = {8 * KiB, 2, picoseconds(750)};
    cachep.l2 = {16 * KiB, 2, nanoseconds(3)};
    cachep.l3 = {32 * KiB, 2, nanoseconds(9)};
    CacheHierarchy caches("caches", &sys, cachep);
    TraceReplayer::Params tp;
    tp.window = 8;
    tp.nestOverhead = sys.params().nestOverhead;
    if (withCaches)
        tp.caches = &caches;
    if (sampled)
        tp.sampler = &sys.enableSampling(goldenSampling(), 7);
    TraceReplayer rep("replay", sys.eventq(), core, &sys, tp,
                      sys.port());
    WindowOutcome out;
    out.result = runToEnd(sys, rep, mem);
    out.digest = statsDigest(sys);
    return out;
}

TEST(DriverGolden, WindowReplayWithCachesDetailed)
{
    WindowOutcome o = runWindow(true, false);
    EXPECT_EQ(o.result.runtime, Tick(1439916000));
    EXPECT_EQ(o.result.reads, 14157u);
    EXPECT_EQ(o.result.writes, 5843u);
    EXPECT_EQ(o.result.computeTime, Tick(400201919));
    EXPECT_EQ(o.result.cacheHits, 2482u);
    EXPECT_EQ(o.result.writebacks, 5873u);
    EXPECT_EQ(o.digest, 4278934701337381966ull);
}

TEST(DriverGolden, WindowReplaySampled)
{
    WindowOutcome o = runWindow(false, true);
    EXPECT_EQ(o.result.runtime, Tick(1266928041));
    EXPECT_EQ(o.result.reads, 14157u);
    EXPECT_EQ(o.result.writes, 5843u);
    EXPECT_EQ(o.result.computeTime, Tick(400201919));
    EXPECT_EQ(o.result.cacheHits, 0u);
    EXPECT_EQ(o.result.writebacks, 0u);
    EXPECT_EQ(o.digest, 16133380895570249490ull);
}

struct TimedOutcome
{
    TimedTraceReplayer::Result result;
    std::uint64_t digest = 0;
    std::uint64_t recaptureChecksum = 0;
    std::uint64_t inputChecksum = 0;
};

TimedOutcome
runTimed(bool sampled)
{
    const std::string path =
        ::testing::TempDir() + "golden_timed_input.bin";
    trace::GenerateSpec spec;
    spec.shape = trace::Shape::qsort;
    spec.records = 20000;
    spec.seed = 2027;
    spec.meanDelay = nanoseconds(100);
    spec.footprint = 64 * MiB;
    trace::generate(spec, path);
    trace::MappedTrace bin(path);

    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    ClockDomain core("core", 250);
    trace::CaptureSink sink(::testing::TempDir()
                            + "golden_timed_recapture.bin");
    TimedTraceReplayer::Params tp;
    tp.nestOverhead = sys.params().nestOverhead;
    tp.capture = &sink;
    if (sampled)
        tp.sampler = &sys.enableSampling(goldenSampling(), 7);
    TimedTraceReplayer rep("replay", sys.eventq(), core, &sys, tp,
                           sys.port());
    TimedOutcome out;
    out.result = runToEnd(sys, rep, bin);
    sink.close();
    out.recaptureChecksum = sink.checksum();
    out.inputChecksum = bin.checksum();
    out.digest = statsDigest(sys);
    return out;
}

TEST(DriverGolden, TimedReplayDetailedWithRecapture)
{
    TimedOutcome o = runTimed(false);
    EXPECT_EQ(o.result.runtime, Tick(2001928000));
    EXPECT_EQ(o.result.reads, 13456u);
    EXPECT_EQ(o.result.writes, 6544u);
    EXPECT_EQ(o.result.replayed, 20000u);
    EXPECT_EQ(o.result.detailed, 20000u);
    EXPECT_EQ(o.digest, 9270268557140659799ull);
    // The recapture reproduces the input byte for byte.
    EXPECT_EQ(o.recaptureChecksum, o.inputChecksum);
    EXPECT_EQ(o.inputChecksum, 173781372975791582ull);
}

TEST(DriverGolden, TimedReplaySampled)
{
    TimedOutcome o = runTimed(true);
    EXPECT_EQ(o.result.runtime, Tick(2001953113));
    EXPECT_EQ(o.result.reads, 13456u);
    EXPECT_EQ(o.result.writes, 6544u);
    EXPECT_EQ(o.result.replayed, 20000u);
    EXPECT_EQ(o.result.detailed, 3120u);
    EXPECT_EQ(o.digest, 5226506853876146814ull);
    // Fast-forwarded records are recaptured too.
    EXPECT_EQ(o.recaptureChecksum, o.inputChecksum);
}

} // namespace
