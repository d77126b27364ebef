#include "storage/slram.hh"

namespace contutto::storage
{

SlramBlockDevice::SlramBlockDevice(const std::string &name,
                                   cpu::Power8System &sys,
                                   stats::StatGroup *parent,
                                   const Params &params)
    : BlockDevice(name, sys.eventq(), sys.nestDomain(), parent,
                  params.capacityBlocks),
      sys_(sys), params_(params)
{}

void
SlramBlockDevice::start(BlockRequest req)
{
    current_ = std::move(req);
    currentFailed_ = false;
    OneShotEvent::schedule(eventq(),
                           curTick() + params_.driverCost,
                           [this] { issueLines(current_); });
}

void
SlramBlockDevice::issueLines(const BlockRequest &req)
{
    unsigned lines_per_block =
        unsigned(blockSize / dmi::cacheLineSize);
    unsigned total = req.blocks * lines_per_block;
    linesOutstanding_ = total;

    Addr base = params_.regionBase + req.lba * blockSize;
    for (unsigned i = 0; i < total; ++i) {
        Addr addr = base + Addr(i) * dmi::cacheLineSize;
        auto line_done = [this](const cpu::HostOpResult &r) {
            ct_assert(linesOutstanding_ > 0);
            if (r.failed)
                currentFailed_ = true;
            if (--linesOutstanding_ > 0)
                return;
            // No flush: acknowledged as soon as the line commands
            // complete at the buffer — the raw-RAM semantics. An
            // aborted line fails the request.
            finish(current_, currentFailed_);
        };
        if (req.isWrite) {
            dmi::CacheLine line{};
            sys_.port().write(addr, line, line_done);
        } else {
            sys_.port().read(addr, line_done);
        }
    }
}

} // namespace contutto::storage
