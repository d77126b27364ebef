#include "storage/flat_device.hh"

namespace contutto::storage
{

FlatDevice::Params
FlatDevice::sasSsd()
{
    Params p;
    p.capacityBlocks = 400ull * 1000 * 1000 * 1000 / blockSize;
    p.mediaReadLatency = microseconds(95);
    // Writes land in the drive's capacitor-backed cache.
    p.mediaWriteLatency = microseconds(43);
    // SAS link + controller, and the SAS 6G interface rate.
    p.commandOverhead = microseconds(10);
    p.transferRate = 550e6;
    // Concurrent internal operations (channels).
    p.parallelism = 8;
    p.description = "SSD (SAS)";
    return p;
}

FlatDevice::Params
FlatDevice::nvramOnPcie()
{
    Params p;
    p.mediaReadLatency = microseconds(13);
    p.mediaWriteLatency = microseconds(23);
    p.description = "NVRAM (PCIe)";
    return p;
}

FlatDevice::Params
FlatDevice::flashOnPcie()
{
    Params p;
    p.mediaReadLatency = microseconds(78);
    p.mediaWriteLatency = microseconds(48);
    p.description = "Flash (x4 PCIe)";
    return p;
}

FlatDevice::Params
FlatDevice::mramOnPcie()
{
    Params p;
    p.capacityBlocks = 256ull * 1024 * 1024 / blockSize;
    p.mediaReadLatency = microseconds(2);
    p.mediaWriteLatency = microseconds(4) + nanoseconds(800);
    // The MRAM vendor card uses a lean polled driver.
    p.commandOverhead = microseconds(4);
    p.description = "STT-MRAM (PCIe)";
    return p;
}

FlatDevice::FlatDevice(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent, const Params &params)
    : BlockDevice(name, eq, domain, parent, params.capacityBlocks,
                  params.parallelism),
      params_(params)
{}

void
FlatDevice::start(BlockRequest req)
{
    Tick media = req.isWrite ? params_.mediaWriteLatency
                             : params_.mediaReadLatency;
    double bytes = double(req.blocks) * blockSize;
    Tick transfer = Tick(bytes / params_.transferRate * 1e12);
    Tick service = params_.commandOverhead + media + transfer;
    OneShotEvent::schedule(eventq(), curTick() + service,
                           [this, r = std::move(req)]() mutable {
                               finish(r);
                           });
}

} // namespace contutto::storage
