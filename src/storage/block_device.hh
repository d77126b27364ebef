/**
 * @file
 * The block-device abstraction the storage experiments run against.
 *
 * The paper's storage results (Table 4, Figures 9 and 10) compare
 * persistent stores across technologies *and* attach points: SAS
 * HDD/SSD, PCIe-attached NVRAM/Flash/MRAM, and MRAM/NVDIMM on the
 * DMI memory link through ConTutto. Each of those is a BlockDevice
 * here; the FIO engine and the GPFS write cache drive them
 * uniformly.
 */

#ifndef CONTUTTO_STORAGE_BLOCK_DEVICE_HH
#define CONTUTTO_STORAGE_BLOCK_DEVICE_HH

#include <deque>
#include <functional>
#include <string>

#include "sim/sim_object.hh"

namespace contutto::storage
{

/** Fixed logical block size used by the experiments. */
constexpr std::size_t blockSize = 4096;

/** One block I/O. */
struct BlockRequest
{
    std::uint64_t lba = 0;   ///< Logical block address.
    unsigned blocks = 1;     ///< Length in blocks.
    bool isWrite = false;
    /** Set when the device gave up (power cut, channel reset); the
     *  data made no durability promise. */
    bool failed = false;
    Tick issuedAt = 0;
    Tick completedAt = 0;
    std::function<void(const BlockRequest &)> onDone;
};

/**
 * Abstract persistent store, and the one request queue every device
 * shares: a FIFO in front of a fixed number of servers (internal
 * channels, queue pairs, or the single actuator of a disk).
 *
 * submit() stamps the request and hands it to a free server or
 * queues it. A device only implements start(), and calls finish()
 * when a started request is done. finish() runs the stats and
 * onDone first, and only then does the server take the next queued
 * request; so a request submitted from inside onDone queues behind
 * the ones already waiting.
 */
class BlockDevice : public SimObject
{
  public:
    BlockDevice(const std::string &name, EventQueue &eq,
                const ClockDomain &domain, stats::StatGroup *parent,
                std::uint64_t capacity_blocks, unsigned servers = 1)
        : SimObject(name, eq, domain, parent),
          capacityBlocks_(capacity_blocks), servers_(servers),
          ioStats_{{this, "readOps", "read requests completed"},
                   {this, "writeOps", "write requests completed"},
                   {this, "failedOps",
                    "requests failed (power cut, reset)"},
                   {this, "readLatency", "read latency (us)"},
                   {this, "writeLatency", "write latency (us)"}}
    {
        ct_assert(servers_ > 0);
    }

    virtual ~BlockDevice() = default;

    /** Queue a block request; completion via req.onDone. */
    virtual void
    submit(BlockRequest req)
    {
        req.issuedAt = curTick();
        if (busy_ < servers_) {
            ++busy_;
            start(std::move(req));
        } else {
            queue_.push_back(std::move(req));
        }
    }

    /** Short technology/attach description for reports. */
    virtual std::string describe() const = 0;

    std::uint64_t capacityBlocks() const { return capacityBlocks_; }

    struct IoStats
    {
        stats::Scalar readOps;
        stats::Scalar writeOps;
        stats::Scalar failedOps;
        stats::Distribution readLatency;
        stats::Distribution writeLatency;
    };

    const IoStats &ioStats() const { return ioStats_; }

  protected:
    /** Serve @p req on the server submit() or finish() took for it. */
    virtual void start(BlockRequest req) = 0;

    /** A started request is done (or, @p failed, abandoned): stats
     *  and onDone, then its server takes the next queued request or
     *  goes idle. */
    void
    finish(BlockRequest &req, bool failed = false)
    {
        record(req, failed);
        if (queue_.empty()) {
            --busy_;
            return;
        }
        BlockRequest next = std::move(queue_.front());
        queue_.pop_front();
        start(std::move(next));
    }

    /** Fail a request no server took: no latency sample, no
     *  durability promise. */
    void reject(BlockRequest &req) { record(req, true); }

    /** Reject every queued request (a power cut). */
    void
    rejectQueued()
    {
        while (!queue_.empty()) {
            BlockRequest req = std::move(queue_.front());
            queue_.pop_front();
            reject(req);
        }
    }

    /** No request in service and none queued. */
    bool idle() const { return busy_ == 0 && queue_.empty(); }

  private:
    void
    record(BlockRequest &req, bool failed)
    {
        req.completedAt = curTick();
        if (failed) {
            req.failed = true;
            ++ioStats_.failedOps;
        } else {
            double us = ticksToNs(req.completedAt - req.issuedAt)
                / 1000.0;
            if (req.isWrite) {
                ++ioStats_.writeOps;
                ioStats_.writeLatency.sample(us);
            } else {
                ++ioStats_.readOps;
                ioStats_.readLatency.sample(us);
            }
        }
        if (req.onDone)
            req.onDone(req);
    }

    const std::uint64_t capacityBlocks_;
    const unsigned servers_;
    unsigned busy_ = 0;
    std::deque<BlockRequest> queue_;
    IoStats ioStats_;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_BLOCK_DEVICE_HH
