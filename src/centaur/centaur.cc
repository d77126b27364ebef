#include "centaur/centaur.hh"

#include "sim/span.hh"

namespace contutto::centaur
{

using namespace dmi;
using namespace mem;

CentaurModel::Config
CentaurModel::optimized()
{
    Config c;
    c.configName = "optimized";
    return c;
}

CentaurModel::Config
CentaurModel::balanced()
{
    Config c;
    c.configName = "balanced";
    c.extraLatency = nanoseconds(4);
    return c;
}

CentaurModel::Config
CentaurModel::conservative()
{
    Config c;
    c.configName = "conservative";
    c.cacheEnabled = false;
    c.extraLatency = nanoseconds(12);
    return c;
}

CentaurModel::Config
CentaurModel::slowest()
{
    Config c;
    c.configName = "slowest";
    c.cacheEnabled = false;
    c.extraLatency = nanoseconds(145);
    return c;
}

CentaurModel::Config
CentaurModel::table3Baseline()
{
    // The Table 3 system measured its most latency-optimized Centaur
    // at 97 ns — a slightly slower setup than the Table 2 system's
    // 79 ns configuration.
    Config c;
    c.configName = "table3-baseline";
    c.extraLatency = nanoseconds(18);
    return c;
}

CentaurModel::Config
CentaurModel::contuttoMatched()
{
    Config c;
    c.configName = "contutto-matched";
    c.cacheEnabled = false;
    c.extraLatency = nanoseconds(189);
    return c;
}

CentaurModel::CentaurModel(const std::string &name, EventQueue &eq,
                           const ClockDomain &domain,
                           stats::StatGroup *parent,
                           const Config &config, BufferLink &link,
                           std::vector<Ddr3Controller *> ports)
    : SimObject(name, eq, domain, parent), config_(config),
      link_(link), ports_(std::move(ports)),
      interleave_{unsigned(ports_.size()), cacheLineSize},
      cache_(cacheCapacity, cacheLineSize, cacheWays),
      stats_{{this, "reads", "read commands served"},
             {this, "writes", "write commands served"},
             {this, "rmws", "read-modify-write commands served"},
             {this, "flushes", "flush (persist fence) commands"},
             {this, "cacheHits", "buffer cache hits"},
             {this, "cacheMisses", "buffer cache misses"},
             {this, "prefetches", "prefetch fills issued"},
             {this, "unsupportedCommands",
              "commands the ASIC has no engine for"},
             {this, "DDR"},
             {this, "poisonedReads",
              "reads returned poisoned (uncorrectable ECC)"}},
      cmdWatchdog_(
          *this, errorLog_, stats_.watchdog,
          mem::CmdWatchdog::defaultTimeout,
          [this](unsigned tag) { issueAccess(std::uint8_t(tag)); },
          [this](unsigned tag) { answerReclaimed(std::uint8_t(tag)); }),
      flushFence_([this](unsigned tag) {
          sendDone(std::uint8_t(tag), cmds_[tag].traceId);
      }),
      lineOrder_([this](unsigned tag) { serve(std::uint8_t(tag)); })
{
    ct_assert(!ports_.empty());
    link_.onFrame = [this](const DownFrame &f) { frameArrived(f); };
}

Ddr3Controller &
CentaurModel::portFor(Addr addr)
{
    return *ports_[interleave_.portOf(addr)];
}

void
CentaurModel::frameArrived(const DownFrame &frame)
{
    if (auto cmd = assembler_.feed(frame)) {
        ++activeCommands_;
        // Command parse/dispatch pipeline plus the knob penalty.
        Tick when = curTick() + pipelineLatency + config_.extraLatency;
        MemCommand c = *cmd;
        OneShotEvent::schedule(eventq(), when,
                               [this, c] { execute(c); });
    }
}

void
CentaurModel::execute(const MemCommand &cmd)
{
    // The command cleared the parse/dispatch pipeline: close the
    // downstream-wire span, open the buffer-residency one (covering
    // any same-line parking below).
    if (cmd.traceId != noTraceId) {
        span::closeIfOpen(cmd.traceId, "dmi.down", curTick());
        span::open(cmd.traceId, "centaur", curTick());
    }

    cmds_[cmd.tag] = cmd;
    // Same-line ordering: reads and writes behind an outstanding
    // write to the same line wait for it.
    if (lineOrder_.admit(cmd.tag, cmd.addr, cmd.type))
        serve(cmd.tag);
}

void
CentaurModel::serve(std::uint8_t tag)
{
    const MemCommand &cmd = cmds_[tag];
    switch (cmd.type) {
      case CmdType::read128:
        serveRead(cmd);
        break;
      case CmdType::write128:
      case CmdType::partialWrite:
        serveWrite(cmd);
        break;
      case CmdType::flush:
        // The fence must mean the same thing on the baseline as on
        // ConTutto, or the pmem durability story is apples to
        // oranges: done only after older writes reach DDR.
        serveFlush(cmd);
        break;
      default:
        // The in-line accelerated ops exist only in ConTutto's FPGA
        // logic (paper §4.3).
        ++stats_.unsupportedCommands;
        warn("Centaur: unsupported command type %d; completing as "
             "no-op", int(cmd.type));
        sendDone(tag, cmd.traceId);
        flushFence_.drained(tag);
        break;
    }
}

void
CentaurModel::answerReclaimed(std::uint8_t tag)
{
    if (cmds_[tag].type != CmdType::read128) {
        writeDone(tag);
        return;
    }
    // The host is owed data; poison it rather than hang the tag.
    ++stats_.poisonedReads;
    MemResponse resp;
    resp.type = RespType::readData;
    resp.tag = tag;
    resp.poisoned = true;
    resp.traceId = cmds_[tag].traceId;
    for (auto &f : encodeResponse(resp))
        link_.sendFrame(f);
    sendDone(tag, resp.traceId);
}

void
CentaurModel::writeDone(std::uint8_t tag)
{
    sendDone(tag, cmds_[tag].traceId);
    lineOrder_.release(tag);
    flushFence_.drained(tag);
}

void
CentaurModel::serveRead(const MemCommand &cmd)
{
    ++stats_.reads;
    if (config_.cacheEnabled && cache_.lookup(cmd.addr)) {
        ++stats_.cacheHits;
        std::uint8_t tag = cmd.tag;
        OneShotEvent::schedule(eventq(), curTick() + cacheHitLatency,
                               [this, tag] {
                                   // Even cache hits re-verify the
                                   // backing line: the tag-only cache
                                   // serves data from the image.
                                   const MemCommand &c = cmds_[tag];
                                   EccScan scan =
                                       portFor(c.addr).device().image()
                                           .verify(localAddr(c.addr),
                                                   cacheLineSize);
                                   finishRead(c,
                                              scan.uncorrectable != 0);
                               });
        return;
    }
    if (config_.cacheEnabled)
        ++stats_.cacheMisses;

    issueAccess(cmd.tag);
}

void
CentaurModel::issueAccess(std::uint8_t tag)
{
    std::uint32_t seq = cmdWatchdog_.arm(tag);
    const MemCommand &c = cmds_[tag];
    auto req = std::make_shared<MemRequest>();
    req->addr = localAddr(c.addr);
    req->isWrite = c.type != CmdType::read128;
    if (req->isWrite)
        req->data = c.data;
    req->traceId = c.traceId;
    if (c.type == CmdType::partialWrite) {
        req->masked = true;
        req->enables = c.enables;
    }
    req->onDone = [this, tag, seq](MemRequest &r) {
        // A superseded or lost completion is the watchdog's.
        if (!cmdWatchdog_.complete(tag, seq))
            return;
        if (r.isWrite)
            writeDone(tag);
        else
            readDone(tag, r.poisoned);
    };
    portFor(c.addr).submit(req);
}

void
CentaurModel::readDone(std::uint8_t tag, bool poisoned)
{
    const MemCommand &c = cmds_[tag];
    if (config_.cacheEnabled) {
        // Write-through cache: fills are never dirty. The next line
        // is prefetched, unless it lies past the end of the channel.
        cache_.fill(c.addr);
        Addr next = c.addr + cacheLineSize;
        bool inRange = localAddr(next) + cacheLineSize
            <= portFor(next).device().capacity();
        if (inRange && !cache_.probe(next)) {
            ++stats_.prefetches;
            auto pf = std::make_shared<MemRequest>();
            pf->addr = localAddr(next);
            pf->isWrite = false;
            pf->onDone = [this, next](MemRequest &) {
                cache_.fill(next);
            };
            if (portFor(next).canAccept())
                portFor(next).submit(pf);
        }
    }
    finishRead(c, poisoned);
}

void
CentaurModel::finishRead(const MemCommand &cmd, bool poisoned)
{
    // Serve the data functionally from the owning device image (the
    // cache is tag-only; contents are always current because writes
    // are write-through).
    if (poisoned) {
        ++stats_.poisonedReads;
        if (errorLog_)
            errorLog_->record(curTick(), name(),
                              firmware::Severity::recoverable,
                              "uncorrectable ECC on read tag "
                                  + std::to_string(cmd.tag));
    }
    MemResponse resp;
    resp.type = RespType::readData;
    resp.tag = cmd.tag;
    resp.poisoned = poisoned;
    resp.traceId = cmd.traceId;
    portFor(cmd.addr).device().image().read(localAddr(cmd.addr),
                                            cacheLineSize,
                                            resp.data.data());
    for (auto &f : encodeResponse(resp))
        link_.sendFrame(f);
    sendDone(cmd.tag, cmd.traceId);
}

void
CentaurModel::serveWrite(const MemCommand &cmd)
{
    if (cmd.type == CmdType::partialWrite)
        ++stats_.rmws;
    else
        ++stats_.writes;
    lineOrder_.hold(cmd.tag);

    if (config_.cacheEnabled) {
        // Write-through: update the tag state, then write memory.
        if (cache_.probe(cmd.addr))
            cache_.writeHit(cmd.addr);
    }

    issueAccess(cmd.tag);
}

void
CentaurModel::serveFlush(const MemCommand &cmd)
{
    ++stats_.flushes;
    flushFence_.add(cmd.tag, lineOrder_.olderWrites());
}

void
CentaurModel::sendDone(std::uint8_t tag, TraceId traceId)
{
    if (traceId != noTraceId)
        span::closeIfOpen(traceId, "centaur", curTick());
    MemResponse resp;
    resp.type = RespType::done;
    resp.tag = tag;
    resp.traceId = traceId;
    for (auto &f : encodeResponse(resp))
        link_.sendFrame(f);
    cmdWatchdog_.release(tag);
    ct_assert(activeCommands_ > 0);
    --activeCommands_;
}

void
CentaurModel::checkpointSave(ckpt::Section &out) const
{
    if (!quiescent() || !lineOrder_.empty() || !flushFence_.empty())
        panic("%s: checkpoint while not quiescent", name().c_str());
    cache_.checkpointSave(out);
    cmdWatchdog_.checkpointSave(out);
}

void
CentaurModel::checkpointRestore(ckpt::Section &in)
{
    if (!quiescent() || !lineOrder_.empty() || !flushFence_.empty())
        panic("%s: restore while not quiescent", name().c_str());
    cache_.checkpointRestore(in);
    cmdWatchdog_.checkpointRestore(in);
}

} // namespace contutto::centaur
