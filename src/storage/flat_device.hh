/**
 * @file
 * Block devices with a flat latency profile: the SAS SSD of Table 4
 * and the PCIe cards of Figures 9 and 10.
 *
 * Each command pays a fixed attach cost, a media access and the
 * payload transfer, and the device serves a fixed number of commands
 * at once. On SAS the attach cost is the link and the controller; on
 * PCIe it is the transaction protocol: doorbell MMIO, command fetch
 * DMA, payload DMA and a completion interrupt. That protocol floor —
 * microseconds even with NVMe — is exactly what the DMI attach point
 * avoids, which is the paper's core storage claim. MRAM-on-PCIe
 * numbers are the vendor's (the paper took them from the datasheet
 * as well).
 */

#ifndef CONTUTTO_STORAGE_FLAT_DEVICE_HH
#define CONTUTTO_STORAGE_FLAT_DEVICE_HH

#include "storage/block_device.hh"

namespace contutto::storage
{

/** overhead + media + transfer per command, N commands at once. */
class FlatDevice : public BlockDevice
{
  public:
    struct Params
    {
        std::uint64_t capacityBlocks =
            256ull * 1024 * 1024 * 1024 / blockSize;
        /** Media access time. */
        Tick mediaReadLatency = microseconds(10);
        Tick mediaWriteLatency = microseconds(20);
        /** Payload transfer rate, bytes/second (PCIe Gen3 x4 DMA
         *  ~ 3.2 GB/s). */
        double transferRate = 3.2e9;
        /** Attach cost per command (PCIe: doorbell + SQ fetch + CQ
         *  write + MSI-X + host ISR). */
        Tick commandOverhead = microseconds(5);
        /** Commands in service at once (queue pairs x channels). */
        unsigned parallelism = 16;
        std::string description = "PCIe device";
    };

    /** @{ The paper's comparison configurations. */
    /** A 400 GB enterprise SAS SSD (Table 4, ~15K IOPS). */
    static Params sasSsd();
    /** NVRAM: flash-backed DRAM behind an NVMe controller. */
    static Params nvramOnPcie();
    /** NVMe NAND flash on x4 PCIe. */
    static Params flashOnPcie();
    /** The vendor's MRAM PCIe card (datasheet numbers). */
    static Params mramOnPcie();
    /** @} */

    FlatDevice(const std::string &name, EventQueue &eq,
               const ClockDomain &domain, stats::StatGroup *parent,
               const Params &params);

    std::string describe() const override
    {
        return params_.description;
    }

    const Params &params() const { return params_; }

  private:
    void start(BlockRequest req) override;

    Params params_;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_FLAT_DEVICE_HH
