#include "workloads.hh"

#include <cmath>

#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "storage/fio.hh"
#include "storage/pmem.hh"
#include "trace/capture.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"

namespace perfbench
{

using namespace contutto;
using namespace contutto::cpu;
using Scope = HostSpans::Scope;

namespace
{

/**
 * @{ Work per pass. Sized so one pass takes a few tenths of a
 * second of host time, which gives a run tens of passes to take a
 * median over.
 */
constexpr std::uint64_t replayRecords = 40000;
constexpr std::uint64_t sampledRecords = 400000;
constexpr unsigned pmemIos = 1500;
constexpr unsigned pmemQueueDepth = 4;
/** @} */

/** Two DDR3 DIMMs behind a ConTutto card. */
Power8System::Params
contuttoDdr3()
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    return p;
}

/** Two STT-MRAM DIMMs behind a ConTutto card. */
Power8System::Params
contuttoMram()
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}},
               DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}}};
    return p;
}

/** Build and train a single-channel system inside @p p's set-up. */
std::unique_ptr<Power8System>
buildSystem(const Power8System::Params &params, HostSpans &spans,
            Pass &p)
{
    std::unique_ptr<Power8System> sys;
    {
        Scope s(spans, "cpu.system_build");
        sys = std::make_unique<Power8System>(params);
    }
    Scope s(spans, "dmi.train");
    if (!sys->train())
        p.problems.push_back("link training failed");
    p.trainSec = s.elapsed();
    return sys;
}

/** Port-level check: every issued line op completed, none poisoned. */
void
checkPorts(Pass &p)
{
    const double completed = p.readLatCount + p.writeLatCount;
    if (completed != p.portOps)
        p.problems.push_back("host-port ops left incomplete");
    if (p.poisoned > 0)
        p.problems.push_back("poisoned responses");
    p.failed += std::fabs(p.portOps - completed) + p.poisoned;
}

/** A qsort-shaped trace of @p records records made from @p seed. */
trace::GenerateSpec
qsortTrace(std::uint64_t records, std::uint64_t seed)
{
    trace::GenerateSpec spec;
    spec.shape = trace::Shape::qsort;
    spec.records = records;
    spec.seed = seed;
    spec.meanDelay = nanoseconds(200);
    return spec;
}

/** Generate @p spec into @p path and map it, inside @p p's set-up. */
std::unique_ptr<trace::MappedTrace>
makeTrace(const trace::GenerateSpec &spec, const std::string &path,
          HostSpans &spans, Pass &p)
{
    trace::GenerateResult gen;
    {
        Scope s(spans, "trace.generate");
        gen = trace::generate(spec, path);
        p.generateNsPerRecord = s.elapsed() * 1e9 / double(spec.records);
    }
    Scope s(spans, "trace.mmap_decode");
    auto bin = std::make_unique<trace::MappedTrace>(path);
    bin->validateAll();
    p.decodeNsPerRecord = s.elapsed() * 1e9 / double(bin->recordCount());
    if (gen.checksum != bin->checksum())
        p.problems.push_back("mapped trace checksum differs");
    return bin;
}

/** The qsort-shaped trace replayed at its recorded ticks. */
class ReplayDetailed : public Workload
{
  public:
    ReplayDetailed(std::uint64_t seed, const std::string &workDir)
        : spec_(qsortTrace(replayRecords, seed)),
          inputPath_(workDir + "/replay-input.bin"),
          recapturePath_(workDir + "/replay-recapture.bin")
    {}

    Pass
    pass(HostSpans &spans, bool check) override
    {
        Pass p;
        const double t0 = hostNow();
        auto bin = makeTrace(spec_, inputPath_, spans, p);
        auto sys = buildSystem(contuttoDdr3(), spans, p);
        p.setupSec = hostNow() - t0;

        // The recapture oracle: replaying a trace while capturing
        // it must reproduce the input file byte for byte.
        std::unique_ptr<trace::CaptureSink> sink;
        if (check)
            sink = std::make_unique<trace::CaptureSink>(recapturePath_);
        ClockDomain core("core", 250);
        TimedTraceReplayer::Params params;
        params.nestOverhead = sys->params().nestOverhead;
        params.capture = sink.get();
        TimedTraceReplayer rep("replay", sys->eventq(), core,
                               sys.get(), params, sys->port());
        bool finished = false;
        TimedTraceReplayer::Result result;
        {
            Scope s(spans, "sim.step_loop");
            rep.start(*bin, [&](const TimedTraceReplayer::Result &r) {
                result = r;
                finished = true;
            });
            while (!finished && sys->eventq().step()) {
            }
            p.runSec = s.elapsed();
        }
        p.attempted = double(bin->recordCount());
        p.ops = finished ? double(result.replayed) : 0;
        p.failed = p.attempted - p.ops;
        if (!finished || result.replayed != bin->recordCount())
            p.problems.push_back("replay did not finish every record");
        if (sink) {
            sink->close();
            if (sink->checksum() != bin->checksum())
                p.problems.push_back("recapture checksum differs");
        }
        p.simRuntimeNs = ticksToNs(result.runtime);
        readStats(*sys, p, spans);
        checkPorts(p);
        return p;
    }

  private:
    trace::GenerateSpec spec_;
    std::string inputPath_;
    std::string recapturePath_;
};

/**
 * The same kind of trace re-timed through the replayer's issue
 * window (closed loop) under SMARTS sampling: most records complete
 * from the calibrated estimate without touching the link.
 */
class ReplaySampled : public Workload
{
  public:
    ReplaySampled(std::uint64_t seed, const std::string &workDir)
        : seed_(seed), spec_(qsortTrace(sampledRecords, seed)),
          inputPath_(workDir + "/sampled-input.bin")
    {
        sampling_.enabled = true;
    }

    Pass
    pass(HostSpans &spans, bool) override
    {
        return run(spans, true);
    }

    double
    detailedReferenceNs(HostSpans &spans) override
    {
        Scope s(spans, "reference.detailed_run");
        return run(spans, false).simRuntimeNs;
    }

  private:
    Pass
    run(HostSpans &spans, bool sampled)
    {
        Pass p;
        const double t0 = hostNow();
        auto bin = makeTrace(spec_, inputPath_, spans, p);
        MemTrace trace;
        {
            Scope s(spans, "trace.to_window_records");
            trace = MemTrace::fromBinary(*bin);
        }
        auto sys = buildSystem(contuttoDdr3(), spans, p);
        p.setupSec = hostNow() - t0;

        ClockDomain core("core", 250);
        TraceReplayer::Params params;
        params.nestOverhead = sys->params().nestOverhead;
        if (sampled)
            params.sampler = &sys->enableSampling(sampling_, seed_);
        TraceReplayer rep("replay", sys->eventq(), core, sys.get(),
                          params, sys->port());
        bool finished = false;
        TraceReplayer::Result result;
        {
            Scope s(spans, "sim.step_loop");
            rep.start(trace, [&](const TraceReplayer::Result &r) {
                result = r;
                finished = true;
            });
            while (!finished && sys->eventq().step()) {
            }
            p.runSec = s.elapsed();
        }
        p.attempted = double(trace.records.size());
        p.ops = finished ? double(result.reads + result.writes) : 0;
        p.failed = p.attempted - p.ops;
        if (p.failed > 0)
            p.problems.push_back("replay did not finish every record");
        p.simRuntimeNs = ticksToNs(result.runtime);
        readStats(*sys, p, spans);
        checkPorts(p);
        return p;
    }

    std::uint64_t seed_;
    trace::GenerateSpec spec_;
    std::string inputPath_;
    sim::SamplingConfig sampling_;
};

/** FIO 4 KiB random I/O, half reads, on pmem over STT-MRAM. */
class PmemMixed : public Workload
{
  public:
    explicit PmemMixed(std::uint64_t seed) : seed_(seed) {}

    Pass
    pass(HostSpans &spans, bool) override
    {
        Pass p;
        const double t0 = hostNow();
        auto sys = buildSystem(contuttoMram(), spans, p);
        std::unique_ptr<storage::PmemBlockDevice> dev;
        {
            Scope s(spans, "storage.pmem_build");
            dev = std::make_unique<storage::PmemBlockDevice>(
                "pmem", *sys, sys.get(),
                storage::PmemBlockDevice::Params::forMram());
        }
        p.setupSec = hostNow() - t0;

        storage::FioEngine::Params fp;
        fp.ops = pmemIos;
        fp.readFraction = 0.5;
        fp.queueDepth = pmemQueueDepth;
        fp.seed = seed_;
        storage::FioEngine::Report report;
        {
            Scope s(spans, "sim.step_loop");
            report = storage::FioEngine(fp).run(sys->eventq(), *dev);
            sys->runUntilIdle();
            p.runSec = s.elapsed();
        }
        const double done = report.readsDone + report.writesDone;
        const double devFailed = dev->ioStats().failedOps.value();
        p.attempted = pmemIos;
        p.ops = done - devFailed;
        p.failed = p.attempted - p.ops;
        if (done != pmemIos || devFailed > 0)
            p.problems.push_back("pmem I/Os failed or never completed");
        p.simRuntimeNs = report.elapsedSeconds * 1e9;
        p.mramBytesWritten = StatView(*sys).sum(".bytesWritten");
        readStats(*sys, p, spans);
        checkPorts(p);
        return p;
    }

  private:
    std::uint64_t seed_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &workDir)
{
    if (name == "replay-detailed")
        return std::make_unique<ReplayDetailed>(seed, workDir);
    if (name == "replay-sampled")
        return std::make_unique<ReplaySampled>(seed, workDir);
    if (name == "pmem-mixed")
        return std::make_unique<PmemMixed>(seed);
    return nullptr;
}

void
readStats(const stats::StatGroup &root, Pass &p, HostSpans &spans)
{
    {
        Scope s(spans, "stats.to_json");
        p.toJsonSec = statsToJson(root, p.statsJson);
    }
    const StatView v(root);
    p.digest = v.digest();
    p.events = v.sum(".eventq.processed");
    p.schedules = v.sum(".eventq.schedules");
    p.overflowSpills = v.sum(".eventq.overflowSpills");
    p.downFrames = v.sum(".down.framesCarried");
    p.upFrames = v.sum(".up.framesCarried");
    p.payloadFrames = v.sum(".txPayloadFrames");
    p.framesReplayed = v.sum(".framesReplayed");
    p.portReads = v.sum(".hostPort.reads");
    p.portWrites = v.sum(".hostPort.writes");
    p.portOps = p.portReads + p.portWrites + v.sum(".hostPort.rmws")
        + v.sum(".hostPort.flushes") + v.sum(".hostPort.inlineOps");
    p.readLatCount = v.distCount(".hostPort.readLatency");
    p.readLatSum = v.distSum(".hostPort.readLatency");
    p.writeLatCount = v.distCount(".hostPort.writeLatency");
    p.poisoned = v.sum(".hostPort.poisonedResponses");
    p.tagStalls = v.sum(".hostPort.tagStalls");
    p.mbsCmds = v.sum(".mbs.reads") + v.sum(".mbs.writes")
        + v.sum(".mbs.rmws") + v.sum(".mbs.flushes")
        + v.sum(".mbs.inlineOps");
    p.mbsOccCount = v.distCount(".mbs.engineOccupancy");
    p.mbsOccSum = v.distSum(".mbs.engineOccupancy");
    p.rowHits = v.sum(".rowHits");
    p.rowMisses = v.sum(".rowMisses");
    p.pmemFences = v.sum(".pmem.flushesIssued");
    p.sampledDetailed = v.sum(".sampling.detailedMisses");
    p.sampledFastForward = v.sum(".sampling.fastForwardMisses");
    p.sampledCiHalfSec = v.sum(".sampling.ciHalfWidthSec");
    p.sampledEstimateSec = v.sum(".sampling.estimatedRuntimeSec");
}

} // namespace perfbench
