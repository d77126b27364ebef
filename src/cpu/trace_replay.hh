/**
 * @file
 * Trace-driven replay through the simulated memory channel.
 *
 * The paper's core pitch is evaluating *real* software against new
 * memory subsystems; when the software itself cannot run here, a
 * memory-access trace of it can. A trace is a sequence of timed
 * records (delay since the previous record, address, read/write,
 * dependency flag); the replayer issues them through the host port,
 * honouring inter-record compute delays, a memory-level-parallelism
 * window, and dependent-access serialization — so a trace captured
 * once can be replayed against Centaur, ConTutto at any knob
 * setting, or any memory technology, and the runtime responds to
 * the modelled latency.
 *
 * The text format is one record per line:
 *
 *     <delay_ns> <r|w|R|W> <hex_addr>
 *
 * where uppercase marks a dependent access (must wait for all
 * earlier accesses to finish). '#' starts a comment.
 */

#ifndef CONTUTTO_CPU_TRACE_REPLAY_HH
#define CONTUTTO_CPU_TRACE_REPLAY_HH

#include <string>
#include <vector>

#include "cpu/cache_hierarchy.hh"
#include "cpu/traffic_driver.hh"
#include "sim/random.hh"
#include "trace/reader.hh"

namespace contutto::cpu
{

/** One trace record. */
struct TraceRecord
{
    /** Compute time since the previous record. */
    Tick delay = 0;
    Addr addr = 0;
    bool isWrite = false;
    /** Dependent: drains all earlier accesses before issuing. */
    bool dependent = false;
};

/** A parsed trace. */
struct MemTrace
{
    std::vector<TraceRecord> records;

    /** Parse the text format; @throw FatalError on syntax errors. */
    static MemTrace parse(const std::string &text);

    /** Render back to the text format. */
    std::string format() const;

    /**
     * Synthesize a trace from workload-style parameters (handy for
     * tests and demos without captured traces).
     */
    static MemTrace synthesize(std::size_t records, Tick mean_delay,
                               Addr footprint, double write_fraction,
                               double dependent_fraction,
                               std::uint64_t seed);

    /**
     * Convert a validated binary trace (trace/reader.hh) to the
     * in-memory form, so window-mode replay runs captured traces
     * too: tickDelta maps to compute delay, dependent ops to the
     * drain flag. Lossless, unlike the text round trip.
     */
    static MemTrace fromBinary(const trace::MappedTrace &bin);
};

/** What one TraceReplayer run reports. */
struct TraceReplayResult
{
    Tick runtime = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Sum of trace compute delays (the memory-independent
     *  floor of the runtime). */
    Tick computeTime = 0;
    /** References served by the caches (when configured). */
    std::uint64_t cacheHits = 0;
    /** Dirty-victim writebacks sent to memory. */
    std::uint64_t writebacks = 0;
    /** Channel trips (misses and writebacks) run in detail. */
    std::uint64_t detailed = 0;
};

/**
 * Replays a trace through a host port. Its work axis (workDone())
 * is records issued, which is also the index of the next record.
 */
class TraceReplayer
    : public TrafficDriver<TraceReplayer, TraceReplayResult>
{
  public:
    struct Params
    {
        /** Outstanding-access window for independent records. */
        unsigned window = 8;
        /** Per-access processor-side overhead (memory trips only). */
        Tick nestOverhead = nanoseconds(44);
        /**
         * Optional cache hierarchy: when set, the trace carries raw
         * references; hits are served on-chip and only misses (and
         * dirty writebacks) travel the channel.
         */
        CacheHierarchy *caches = nullptr;
        /**
         * Sampled execution (sim/sampling.hh): the controller is
         * consulted once per channel trip (miss or writeback);
         * fast-forwarded trips complete from the calibrated
         * estimate. Cache probes still run functionally in both
         * regimes, so the hierarchy's contents — and every
         * hit/miss/writeback decision — are exact, not sampled.
         */
        sim::SamplingController *sampler = nullptr;
        /**
         * Optional capture hook (trace/capture.hh): every channel
         * trip — post-cache miss or writeback — is appended to the
         * sink as it issues, so replaying one trace can record
         * another (e.g. a post-cache-filter trace).
         */
        trace::CaptureSink *capture = nullptr;
    };

    using Result = TraceReplayResult;

    TraceReplayer(const std::string &name, EventQueue &eq,
                  const ClockDomain &domain, stats::StatGroup *parent,
                  const Params &params, HostMemPort &port);

    /** Start replaying @p trace; @p done fires at completion. */
    void start(const MemTrace &trace,
               std::function<void(const Result &)> done);

  private:
    friend TrafficDriver;

    void advance();
    void issueCurrent();
    /** A channel trip or an on-chip hit completed. */
    void tripDone(unsigned = 0);
    void maybeFinish();

    Params params_;
    const MemTrace *trace_ = nullptr;
    unsigned outstanding_ = 0;
    bool waitingDrain_ = false;
};

/** What one TimedTraceReplayer run reports. */
struct TimedReplayResult
{
    /** Last completion minus first issue. */
    Tick runtime = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Records replayed (== the trace's recordCount). */
    std::uint64_t replayed = 0;
    /** Records that travelled the channel in detail. */
    std::uint64_t detailed = 0;
};

/**
 * Replays a binary trace at its recorded issue times, streaming
 * records straight off the mmap.
 *
 * Where TraceReplayer re-times a trace through a window model (so
 * the runtime responds to the modelled latency), TimedTraceReplayer
 * reproduces the captured stimulus exactly: every record issues at
 * its recorded tick regardless of completions — which is what makes
 * a capture→replay round trip drive the channel byte-identically to
 * the run it was captured from. A trace whose origin is already in
 * the past replays under a rigid time shift (deltas preserved), and
 * an attached recapture sink is told the shift so re-captured files
 * stay byte-identical to the input.
 *
 * Sampled mode composes the same way as everywhere else: the
 * controller is consulted per record, and fast-forwarded records
 * complete from the calibrated estimate without touching the
 * channel — the path that streams millions of records per second.
 * The work axis (workDone()) is records issued.
 */
class TimedTraceReplayer
    : public TrafficDriver<TimedTraceReplayer, TimedReplayResult>
{
  public:
    struct Params
    {
        /** Per-access processor-side overhead (completion side
         *  only; never delays an issue). */
        Tick nestOverhead = nanoseconds(44);
        /** Sampled execution; see TraceReplayer::Params. */
        sim::SamplingController *sampler = nullptr;
        /** Optional recapture sink: every replayed record is
         *  re-recorded at its (shifted) issue tick. */
        trace::CaptureSink *capture = nullptr;
    };

    using Result = TimedReplayResult;

    TimedTraceReplayer(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent,
                       const Params &params, HostMemPort &port);

    /** Start replaying @p trace; @p done fires at completion. */
    void start(const trace::MappedTrace &trace,
               std::function<void(const Result &)> done);

    /** The rigid shift applied to recorded ticks this run. */
    Tick shift() const { return shift_; }

  private:
    friend TrafficDriver;

    void issueDue();
    void scheduleNext();
    void tripDone(unsigned = 0);
    void maybeFinish();

    Params params_;
    const trace::MappedTrace *trace_ = nullptr;
    /** Absolute (unshifted) tick of the next record. */
    Tick nextTick_ = 0;
    Tick shift_ = 0;
    std::uint64_t outstanding_ = 0;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_TRACE_REPLAY_HH
