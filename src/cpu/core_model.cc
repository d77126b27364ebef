#include "cpu/core_model.hh"

namespace contutto::cpu
{

CoreModel::CoreModel(const std::string &name, EventQueue &eq,
                     const ClockDomain &domain,
                     stats::StatGroup *parent,
                     const WorkloadProfile &profile,
                     const Params &params, HostMemPort &port)
    : TrafficDriver(name, eq, domain, parent, port, params.sampler,
                    params.capture, params.nestOverhead,
                    [this] { missPoint(); }, ".advance"),
      profile_(profile), params_(params),
      rng_(params.seed ^ std::hash<std::string>{}(profile.name))
{
    ct_assert(profile_.workingSet >= dmi::cacheLineSize);
    streamCursor_ = params_.memoryBase;
}

void
CoreModel::start(std::function<void(const Result &)> done)
{
    beginRun(std::move(done));
    missesIssued_ = missesDone_ = 0;
    advance();
}

void
CoreModel::advance()
{
    if (!running() || stalled_ || driveEvent_.scheduled())
        return;
    if (workDone_ >= params_.instructions) {
        maybeFinish();
        return;
    }

    std::uint64_t remaining =
        params_.instructions - workDone_;
    std::uint64_t seg;
    if (profile_.missesPerKiloInstr <= 0.0) {
        seg = remaining;
    } else {
        double mean = 1000.0 / profile_.missesPerKiloInstr;
        // +/-50% jitter keeps miss spacing from beating against the
        // memory system deterministically.
        double jitter = 0.5 + rng_.uniform();
        seg = std::uint64_t(mean * jitter);
        if (seg < 1)
            seg = 1;
        if (seg > remaining)
            seg = remaining;
    }

    // Compute time for the segment at the base (perfect-memory) CPI.
    Tick compute =
        Tick(double(seg) * profile_.baseCpi * double(clockPeriod()));
    workDone_ += seg;
    eventq().schedule(&driveEvent_, curTick() + compute);
}

void
CoreModel::missPoint()
{
    if (!running())
        return;
    if (workDone_ >= params_.instructions
        && profile_.missesPerKiloInstr <= 0.0) {
        maybeFinish();
        return;
    }
    if (profile_.missesPerKiloInstr <= 0.0) {
        maybeFinish();
        return;
    }

    double p = rng_.uniform();
    MissKind kind;
    if (p < profile_.chaseFraction)
        kind = MissKind::chase;
    else if (p < profile_.chaseFraction + profile_.streamFraction)
        kind = MissKind::stream;
    else
        kind = MissKind::random;
    issueMiss(kind);

    if (!stalled_)
        advance();
    if (workDone_ >= params_.instructions)
        maybeFinish();
}

void
CoreModel::issueMiss(MissKind kind)
{
    // Capacity checks: the core stalls when the kind's MLP window is
    // full (and always behind a dependent chase).
    bool blocked = false;
    switch (kind) {
      case MissKind::chase:
        blocked = chaseOutstanding_;
        break;
      case MissKind::stream:
        blocked = outstandingStream_ >= profile_.streamMlp;
        break;
      case MissKind::random:
        blocked = outstandingRandom_ >= profile_.mlp;
        break;
    }
    if (blocked) {
        pendingMiss_ = true;
        pendingKind_ = kind;
        stalled_ = true;
        return;
    }

    std::uint64_t lines = profile_.workingSet / dmi::cacheLineSize;
    Addr addr;
    if (kind == MissKind::stream) {
        streamCursor_ += dmi::cacheLineSize;
        if (streamCursor_ >=
            params_.memoryBase + profile_.workingSet)
            streamCursor_ = params_.memoryBase;
        addr = streamCursor_;
    } else {
        addr = params_.memoryBase
            + rng_.below(lines) * dmi::cacheLineSize;
    }

    switch (kind) {
      case MissKind::chase:
        chaseOutstanding_ = true;
        stalled_ = true; // dependent load: the window drains
        break;
      case MissKind::stream:
        ++outstandingStream_;
        break;
      case MissKind::random:
        ++outstandingRandom_;
        break;
    }
    ++missesIssued_;

    // The RNG draws happen whether or not the sampler runs this miss
    // in detail, so the address/kind/write streams are identical in
    // both regimes. Every miss pays the nest overhead through a
    // scheduled event.
    bool isWrite = rng_.chance(profile_.writeFraction);
    trip(addr, trace::makeOp(isWrite, kind == MissKind::chase),
         unsigned(kind), Nest::scheduled);
}

void
CoreModel::tripDone(unsigned token)
{
    MissKind kind = MissKind(token);
    ++missesDone_;
    switch (kind) {
      case MissKind::chase:
        chaseOutstanding_ = false;
        break;
      case MissKind::stream:
        ct_assert(outstandingStream_ > 0);
        --outstandingStream_;
        break;
      case MissKind::random:
        ct_assert(outstandingRandom_ > 0);
        --outstandingRandom_;
        break;
    }

    if (pendingMiss_) {
        MissKind k = pendingKind_;
        pendingMiss_ = false;
        issueMiss(k);
        if (pendingMiss_)
            return; // still blocked
    }
    if (stalled_ && !chaseOutstanding_ && !pendingMiss_) {
        stalled_ = false;
        advance();
    }
    maybeFinish();
}

void
CoreModel::maybeFinish()
{
    if (!running())
        return;
    if (workDone_ < params_.instructions)
        return;
    if (missesDone_ < missesIssued_ || pendingMiss_)
        return;
    if (driveEvent_.scheduled())
        return;
    endRun(workDone_);
}

void
CoreModel::completeResult()
{
    result_.instructions = workDone_;
    result_.misses = missesDone_;
    double cycles =
        double(result_.runtime) / double(clockPeriod());
    result_.cpi = cycles / double(result_.instructions);
    result_.ips = double(result_.instructions)
        / ticksToSeconds(result_.runtime);
}

} // namespace contutto::cpu
