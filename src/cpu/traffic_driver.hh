/**
 * @file
 * The memory trip and run lifecycle shared by the traffic drivers.
 *
 * CoreModel, TraceReplayer and TimedTraceReplayer differ in when
 * they issue: per-kind MLP with the chase stall, an issue window
 * with drain-before-dependent and a cache filter, or open loop at
 * recorded ticks. What happens once an access leaves the core is
 * the same for all three and lives here, in trip():
 *
 *  - the capture hook records the access;
 *  - SamplingController::beginMiss decides, on the driver's own work
 *    axis (workDone()), whether it travels the real channel;
 *  - a fast-forwarded trip applies a store through the functional
 *    hook and completes after the calibrated estimate plus the nest
 *    overhead;
 *  - a detailed trip goes through the host port, feeds its latency
 *    to the estimate while a measured window is open, and completes
 *    after the nest overhead.
 *
 * The run lifecycle lives here too: the running flag, the start
 * tick, the done callback, the sampler's end-of-run stitch and the
 * runtime, and the driver's own timing event, descheduled on
 * destruction.
 *
 * Drivers derive from TrafficDriver<Driver, Result> (CRTP). A
 * trip's completion calls Driver::tripDone(token) directly, so the
 * shared path makes no virtual call; and the port callback captures
 * 16 bytes, which std::function stores inline, so it makes no heap
 * allocation either.
 */

#ifndef CONTUTTO_CPU_TRAFFIC_DRIVER_HH
#define CONTUTTO_CPU_TRAFFIC_DRIVER_HH

#include <functional>
#include <string>

#include "cpu/host_port.hh"
#include "sim/sampling.hh"
#include "sim/sim_object.hh"
#include "trace/capture.hh"

namespace contutto::cpu
{

template <typename Driver, typename Result>
class TrafficDriver : public SimObject
{
  public:
    ~TrafficDriver() override
    {
        if (driveEvent_.scheduled())
            eventq().deschedule(&driveEvent_);
    }

    bool running() const { return running_; }
    const Result &result() const { return result_; }

    /**
     * Work done so far in the driver's own units (instructions
     * retired, trace records issued): the sampler's work axis, and
     * live progress for campaign boards.
     */
    std::uint64_t workDone() const { return workDone_; }

  protected:
    /** How a trip's processor-side (nest) overhead completes. */
    enum class Nest : std::uint8_t
    {
        /** No overhead: completes as the channel answers. */
        none,
        /** The nest overhead; a zero overhead completes inline. */
        charged,
        /** The nest overhead, always through a scheduled event. */
        scheduled,
    };

    /**
     * @p onDrive runs when the driver's own timing event (see
     * driveEvent_) fires; the event is named @p name + @p suffix.
     */
    template <typename F>
    TrafficDriver(const std::string &name, EventQueue &eq,
                  const ClockDomain &domain, stats::StatGroup *parent,
                  HostMemPort &port, sim::SamplingController *sampler,
                  trace::CaptureSink *capture, Tick nestOverhead,
                  F &&onDrive, const char *suffix)
        : SimObject(name, eq, domain, parent),
          driveEvent_(std::forward<F>(onDrive), name + suffix),
          port_(port), sampler_(sampler), capture_(capture),
          nestOverhead_(nestOverhead)
    {}

    /** Open a run; @p done fires from endRun(). */
    void
    beginRun(std::function<void(const Result &)> done)
    {
        ct_assert(!running_);
        running_ = true;
        workDone_ = 0;
        result_ = Result{};
        startedAt_ = curTick();
        done_ = std::move(done);
    }

    /**
     * Close the run over @p totalWork work units: stitch the
     * sampler's estimate, set the runtime, let the driver derive
     * its other fields (Driver::completeResult), then report.
     */
    void
    endRun(std::uint64_t totalWork)
    {
        running_ = false;
        if (sampler_)
            sampler_->finishRun(totalWork, curTick(), workDone_);
        result_.runtime = curTick() - startedAt_;
        self().completeResult();
        if (done_)
            done_(result_);
    }

    /** Default: no fields beyond the runtime. */
    void completeResult() {}

    /**
     * Send one access to memory; Driver::tripDone(@p token) runs
     * when it completes. A @p replayed record, when given, is the
     * trace record this trip re-issues, so the capture keeps its
     * size and thread id.
     * @return true when the trip travels the real channel.
     */
    bool
    trip(Addr addr, trace::Op op, unsigned token = 0,
         Nest nest = Nest::charged,
         const trace::Record *replayed = nullptr)
    {
        const Tick now = curTick();
        if (capture_) {
            if (replayed)
                capture_->record(now, addr, op, replayed->sizeLog2,
                                 replayed->threadId);
            else
                capture_->record(now, addr, op);
        }

        bool detailed = true;
        bool measured = false;
        if (sampler_) {
            detailed = sampler_->beginMiss(workDone_, now);
            measured = detailed && sampler_->measuring();
        }
        const bool isWrite = trace::opIsWrite(op);

        if (!detailed) {
            // Fast-forward: charge the calibrated estimate; stores
            // still land in the memory image.
            if (isWrite)
                sampler_->warmWrite(addr, dmi::CacheLine{});
            OneShotEvent::schedule(
                eventq(),
                now + sampler_->chargedLatency() + overhead(nest),
                [this, token] { self().tripDone(token); });
            return false;
        }

        auto completion = [this, token, measured,
                           nest](const HostOpResult &r) {
            if (measured && !r.failed)
                sampler_->observeLatency(r.doneAt - r.issuedAt);
            const Tick after = overhead(nest);
            if (after == 0 && nest != Nest::scheduled) {
                self().tripDone(token);
                return;
            }
            OneShotEvent::schedule(eventq(), curTick() + after,
                                   [this, token] {
                                       self().tripDone(token);
                                   });
        };
        // Inside std::function's inline buffer: no heap allocation
        // per trip.
        static_assert(sizeof(completion) <= 2 * sizeof(void *));
        if (isWrite)
            port_.write(addr, dmi::CacheLine{}, completion);
        else
            port_.read(addr, completion);
        return true;
    }

    /** The driver's own timing event: its next miss point, window
     *  issue or recorded tick. */
    EventFunctionWrapper driveEvent_;
    /** Work units done this run; see workDone(). */
    std::uint64_t workDone_ = 0;
    Result result_;

  private:
    Driver &self() { return static_cast<Driver &>(*this); }

    Tick
    overhead(Nest nest) const
    {
        return nest == Nest::none ? 0 : nestOverhead_;
    }

    HostMemPort &port_;
    sim::SamplingController *sampler_;
    trace::CaptureSink *capture_;
    Tick nestOverhead_;
    bool running_ = false;
    Tick startedAt_ = 0;
    std::function<void(const Result &)> done_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_TRAFFIC_DRIVER_HH
