/**
 * @file
 * The raw slram block driver (paper §4: experiments ran "either the
 * pmem.io driver stack or raw slram driver").
 *
 * slram is the bare RAM-disk path: block I/O straight onto the
 * memory region with no persistence barriers — no flush after
 * writes — and a thinner software path than the pmem block stack.
 * Faster, but a write acknowledged by slram may still be sitting in
 * the buffer pipeline when power fails; the pmem path's flush
 * guarantees it reached the media. The pair makes the cost of the
 * persistence guarantee measurable.
 */

#ifndef CONTUTTO_STORAGE_SLRAM_HH
#define CONTUTTO_STORAGE_SLRAM_HH

#include "cpu/system.hh"
#include "storage/block_device.hh"

namespace contutto::storage
{

/** The raw memory-backed block device. */
class SlramBlockDevice : public BlockDevice
{
  public:
    struct Params
    {
        Addr regionBase = 0;
        std::uint64_t capacityBlocks =
            256ull * 1024 * 1024 / blockSize;
        /** Thin driver cost per 4 KiB op. */
        Tick driverCost = nanoseconds(600);
    };

    SlramBlockDevice(const std::string &name, cpu::Power8System &sys,
                     stats::StatGroup *parent, const Params &params);

    std::string
    describe() const override
    {
        return std::string(mem::memTechName(sys_.dimm(0).tech()))
            + " (DMI, raw slram)";
    }

  private:
    void start(BlockRequest req) override;
    void issueLines(const BlockRequest &req);

    cpu::Power8System &sys_;
    Params params_;
    BlockRequest current_;
    unsigned linesOutstanding_ = 0;
    bool currentFailed_ = false;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_SLRAM_HH
