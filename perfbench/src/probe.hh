/**
 * @file
 * Measurement helpers for the host-throughput benchmark: host
 * clocks and medians, the benchmark's own host-time spans, a flat
 * view of a system's stat tree (sums, a digest of the modelled
 * hardware, JSON), the simulated-stage span breakdown, and the
 * out-of-run DMI cost calibration.
 */

#ifndef CONTUTTO_PERFBENCH_PROBE_HH
#define CONTUTTO_PERFBENCH_PROBE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"

namespace perfbench
{

/** Host steady-clock time in seconds. */
double hostNow();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * The benchmark's own host-time spans, one per layer call it makes
 * (trace generation, system build, link training, the step loop,
 * stats export, calibration loops). Kept in memory and written out
 * once, as Perfetto trace events, when the benchmark ends.
 */
class HostSpans
{
  public:
    struct Span
    {
        std::string name;
        double begin = 0; ///< host seconds
        double end = 0;
        unsigned depth = 0;
    };

    /** Records one span from construction to destruction. */
    class Scope
    {
      public:
        Scope(HostSpans &owner, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the scope opened. */
        double elapsed() const;

      private:
        HostSpans &owner_;
        std::size_t index_;
    };

    /** Perfetto trace events (pid 1, one track), each one written
     *  after a ",\n" so they can follow other events in an array. */
    void writeEvents(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    unsigned open_ = 0;
};

/** A flat view of one stat tree, taken while the tree is alive. */
class StatView
{
  public:
    explicit StatView(const contutto::stats::StatGroup &root);

    /** Sum of every scalar/value stat whose dotted path ends with
     *  @p suffix (a leading '.' anchors it at a component edge). */
    double sum(std::string_view suffix) const;

    /** Sample count and sample sum of every distribution whose path
     *  ends with @p suffix; the pooled mean is sum / count. */
    double distCount(std::string_view suffix) const;
    double distSum(std::string_view suffix) const;

    /**
     * FNV-1a digest of every stat of the modelled hardware. The
     * simulator's own bookkeeping (every "eventq" group) is left
     * out, so a change that runs fewer events per op keeps the
     * digest.
     */
    std::uint64_t digest() const { return digest_; }

  private:
    struct Entry
    {
        std::string path;
        double value = 0;     ///< scalar/value, or distribution sum
        double count = 0;     ///< distribution samples (0 otherwise)
        bool distribution = false;
    };
    std::vector<Entry> entries_;
    std::uint64_t digest_ = 0;
};

/** Write @p root's stat tree as JSON; returns the host seconds. */
double statsToJson(const contutto::stats::StatGroup &root,
                   std::string &out);

/**
 * Simulated exclusive time per op of each stage the span tracker
 * records, over every span captured so far. Host-path stages are
 * averaged over the traced host-port ops, pmem stages over the
 * traced block I/Os.
 */
struct StageBreakdown
{
    std::map<std::string, double> nsPerOp;
    std::uint64_t tracedHostOps = 0;
    std::uint64_t tracedBlockOps = 0;
};
StageBreakdown stageBreakdown();

/**
 * Host cost of the DMI link's per-frame and per-op work, timed
 * outside the simulation on frames shaped like a workload's own:
 * the same read/write mix and the same share of downstream frames.
 */
struct DmiCalibration
{
    double crcNsPerFrame = 0;
    double scrambleNsPerFrame = 0;
    double codecNsPerOp = 0;
};
DmiCalibration calibrateDmi(double readShare, double downShare,
                            std::uint64_t seed, HostSpans &spans);

} // namespace perfbench

#endif // CONTUTTO_PERFBENCH_PROBE_HH
