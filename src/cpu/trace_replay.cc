#include "cpu/trace_replay.hh"

#include <sstream>

namespace contutto::cpu
{

MemTrace
MemTrace::parse(const std::string &text)
{
    MemTrace trace;
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        double delay_ns;
        std::string op;
        std::string addr_s;
        if (!(ls >> delay_ns))
            continue; // blank
        if (!(ls >> op >> addr_s))
            fatal("trace line %u: expected '<delay> <r|w|R|W> "
                  "<hex_addr>'", lineno);
        if (op.size() != 1
            || (op[0] != 'r' && op[0] != 'w' && op[0] != 'R'
                && op[0] != 'W'))
            fatal("trace line %u: bad op '%s'", lineno, op.c_str());
        TraceRecord rec;
        rec.delay = Tick(delay_ns * 1000.0);
        rec.isWrite = (op[0] == 'w' || op[0] == 'W');
        rec.dependent = (op[0] == 'R' || op[0] == 'W');
        rec.addr = std::stoull(addr_s, nullptr, 16)
            & ~Addr(dmi::cacheLineSize - 1);
        trace.records.push_back(rec);
    }
    return trace;
}

std::string
MemTrace::format() const
{
    std::ostringstream os;
    for (const TraceRecord &r : records) {
        char op = r.isWrite ? (r.dependent ? 'W' : 'w')
                            : (r.dependent ? 'R' : 'r');
        os << ticksToNs(r.delay) << " " << op << " " << std::hex
           << r.addr << std::dec << "\n";
    }
    return os.str();
}

MemTrace
MemTrace::fromBinary(const trace::MappedTrace &bin)
{
    MemTrace trace;
    trace.records.reserve(bin.recordCount());
    for (std::uint64_t i = 0; i < bin.recordCount(); ++i) {
        trace::Record r = bin.record(i);
        TraceRecord rec;
        rec.delay = r.tickDelta;
        rec.addr = r.addr & ~Addr(dmi::cacheLineSize - 1);
        rec.isWrite = trace::opIsWrite(r.op);
        rec.dependent = trace::opIsDependent(r.op);
        trace.records.push_back(rec);
    }
    return trace;
}

MemTrace
MemTrace::synthesize(std::size_t n, Tick mean_delay, Addr footprint,
                     double write_fraction,
                     double dependent_fraction, std::uint64_t seed)
{
    Rng rng(seed);
    MemTrace trace;
    trace.records.reserve(n);
    std::uint64_t lines = footprint / dmi::cacheLineSize;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.delay = Tick(double(mean_delay)
                         * (0.5 + rng.uniform()));
        rec.addr = rng.below(lines) * dmi::cacheLineSize;
        rec.isWrite = rng.chance(write_fraction);
        rec.dependent = rng.chance(dependent_fraction);
        trace.records.push_back(rec);
    }
    return trace;
}

TraceReplayer::TraceReplayer(const std::string &name, EventQueue &eq,
                             const ClockDomain &domain,
                             stats::StatGroup *parent,
                             const Params &params, HostMemPort &port)
    : TrafficDriver(name, eq, domain, parent, port, params.sampler,
                    params.capture, params.nestOverhead,
                    [this] { issueCurrent(); }, ".advance"),
      params_(params)
{
    ct_assert(params_.window > 0);
}

void
TraceReplayer::start(const MemTrace &trace,
                     std::function<void(const Result &)> done)
{
    beginRun(std::move(done));
    trace_ = &trace;
    outstanding_ = 0;
    waitingDrain_ = false;
    advance();
}

void
TraceReplayer::advance()
{
    if (!running() || waitingDrain_ || driveEvent_.scheduled())
        return;
    if (workDone_ >= trace_->records.size()) {
        maybeFinish();
        return;
    }
    const TraceRecord &rec = trace_->records[workDone_];
    result_.computeTime += rec.delay;
    eventq().schedule(&driveEvent_, curTick() + rec.delay);
}

void
TraceReplayer::issueCurrent()
{
    const TraceRecord &rec = trace_->records[workDone_];
    if (rec.dependent && outstanding_ > 0) {
        // Drain before a dependent access.
        waitingDrain_ = true;
        return;
    }
    if (outstanding_ >= params_.window) {
        waitingDrain_ = true; // window full: resume on completion
        return;
    }
    ++workDone_;
    ++outstanding_;
    if (rec.isWrite)
        ++result_.writes;
    else
        ++result_.reads;

    if (params_.caches) {
        auto filtered = params_.caches->access(rec.addr, rec.isWrite);
        if (filtered.writeback) {
            // Dirty L3 victim: fire-and-forget to memory, with no
            // nest overhead, but it occupies a window slot until it
            // lands.
            ++outstanding_;
            ++result_.writebacks;
            if (trip(*filtered.writeback, trace::Op::write, 0,
                     Nest::none))
                ++result_.detailed;
        }
        if (filtered.servedBy != CacheHierarchy::Level::memory) {
            // On-chip hit: completes after the level's latency.
            ++result_.cacheHits;
            OneShotEvent::schedule(eventq(),
                                   curTick() + filtered.delay,
                                   [this] { tripDone(); });
            advance();
            return;
        }
    }

    if (trip(rec.addr, trace::makeOp(rec.isWrite, rec.dependent)))
        ++result_.detailed;
    advance();
}

void
TraceReplayer::tripDone(unsigned)
{
    ct_assert(outstanding_ > 0);
    --outstanding_;
    if (waitingDrain_) {
        const TraceRecord &rec = trace_->records[workDone_];
        bool can_issue = rec.dependent ? outstanding_ == 0
                                       : outstanding_
                                             < params_.window;
        if (can_issue) {
            waitingDrain_ = false;
            issueCurrent();
        }
    }
    maybeFinish();
}

void
TraceReplayer::maybeFinish()
{
    if (running() && workDone_ >= trace_->records.size()
        && outstanding_ == 0)
        endRun(trace_->records.size());
}

TimedTraceReplayer::TimedTraceReplayer(
    const std::string &name, EventQueue &eq,
    const ClockDomain &domain, stats::StatGroup *parent,
    const Params &params, HostMemPort &port)
    : TrafficDriver(name, eq, domain, parent, port, params.sampler,
                    params.capture, params.nestOverhead,
                    [this] { issueDue(); }, ".issue"),
      params_(params)
{}

void
TimedTraceReplayer::start(const trace::MappedTrace &trace,
                          std::function<void(const Result &)> done)
{
    beginRun(std::move(done));
    trace_ = &trace;
    outstanding_ = 0;
    if (trace.recordCount() == 0) {
        maybeFinish();
        return;
    }
    // A trace whose origin is already behind us replays under a
    // rigid shift; deltas — and therefore a recapture — are
    // unchanged.
    nextTick_ = trace.record(0).tickDelta;
    shift_ = nextTick_ >= curTick() ? 0 : curTick() - nextTick_;
    if (params_.capture)
        params_.capture->setBase(shift_);
    scheduleNext();
}

void
TimedTraceReplayer::scheduleNext()
{
    if (workDone_ >= trace_->recordCount()) {
        maybeFinish();
        return;
    }
    eventq().schedule(&driveEvent_, nextTick_ + shift_);
}

void
TimedTraceReplayer::issueDue()
{
    // Issue every record whose (shifted) tick is now; records are
    // decoded straight off the mmap, one at a time.
    Tick now = curTick();
    while (workDone_ < trace_->recordCount()
           && nextTick_ + shift_ == now) {
        trace::Record rec = trace_->record(workDone_);
        if (trace::opIsWrite(rec.op))
            ++result_.writes;
        else
            ++result_.reads;
        ++result_.replayed;
        ++outstanding_;
        if (trip(rec.addr, rec.op, 0, Nest::charged, &rec))
            ++result_.detailed;

        ++workDone_;
        if (workDone_ < trace_->recordCount())
            nextTick_ += trace_->record(workDone_).tickDelta;
    }
    scheduleNext();
}

void
TimedTraceReplayer::tripDone(unsigned)
{
    ct_assert(outstanding_ > 0);
    --outstanding_;
    maybeFinish();
}

void
TimedTraceReplayer::maybeFinish()
{
    if (running() && workDone_ >= trace_->recordCount()
        && outstanding_ == 0)
        endRun(trace_->recordCount());
}

} // namespace contutto::cpu
