/**
 * @file
 * The benchmark's workloads. Each one makes its inputs from the
 * seed, then runs passes: a pass builds a fresh system (set-up),
 * runs the workload to completion (the timed step loop), checks its
 * ops, and reads the layer counts off the system's stat tree before
 * the system is torn down. Every pass of one seed simulates the
 * same history, so every simulated count repeats exactly.
 */

#ifndef CONTUTTO_PERFBENCH_WORKLOADS_HH
#define CONTUTTO_PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "probe.hh"

namespace perfbench
{

/** What one pass measured and counted. */
struct Pass
{
    /** @{ Host time. */
    double setupSec = 0; ///< inputs, system build, link training
    double runSec = 0;   ///< the step loop
    double trainSec = 0; ///< link training alone
    double generateNsPerRecord = 0; ///< trace generation (0: none)
    double decodeNsPerRecord = 0;   ///< trace mmap and decode
    double toJsonSec = 0;
    /** @} */

    /** @{ Ops of the workload's traffic source. */
    double ops = 0;        ///< completed, fast-forwarded included
    double attempted = 0;
    double failed = 0;     ///< failed, poisoned, or never completed
    /** @} */

    /** Simulated runtime (the sampled estimate on replay-sampled). */
    double simRuntimeNs = 0;
    /** Correctness problems seen in this pass (empty: none). */
    std::vector<std::string> problems;

    /** Digest of the modelled-hardware stats. */
    std::uint64_t digest = 0;
    /** The system's stat tree as JSON. */
    std::string statsJson;

    /** @{ Counts read off the stat tree. */
    double events = 0, schedules = 0, overflowSpills = 0;
    double downFrames = 0, upFrames = 0, payloadFrames = 0;
    double framesReplayed = 0;
    double portReads = 0, portWrites = 0, portOps = 0;
    double readLatCount = 0, readLatSum = 0, writeLatCount = 0;
    double poisoned = 0, tagStalls = 0;
    double mbsCmds = 0, mbsOccCount = 0, mbsOccSum = 0;
    double rowHits = 0, rowMisses = 0;
    double mramBytesWritten = 0;
    double pmemFences = 0;
    double sampledDetailed = 0, sampledFastForward = 0;
    double sampledCiHalfSec = 0, sampledEstimateSec = 0;
    /** @} */
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * One pass; @p spans gets the host-time spans of its calls. A
     * @p check pass also runs the checks too costly for every pass
     * (the replay recapture); it is not timed.
     */
    virtual Pass pass(HostSpans &spans, bool check) = 0;

    /**
     * Full-detail simulated runtime of the same work, the reference
     * a sampled workload's estimate is compared to; 0 when the
     * workload runs in full detail (it is its own reference).
     */
    virtual double detailedReferenceNs(HostSpans &) { return 0; }
};

/** Build workload @p name for @p seed; inputs land in @p workDir.
 *  Null when the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &workDir);

/** Fill the stat-tree counts, JSON and digest of @p p from @p root. */
void readStats(const contutto::stats::StatGroup &root, Pass &p,
               HostSpans &spans);

} // namespace perfbench

#endif // CONTUTTO_PERFBENCH_WORKLOADS_HH
