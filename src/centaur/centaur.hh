/**
 * @file
 * The Centaur memory-buffer ASIC model: the baseline ConTutto
 * replaces.
 *
 * Centaur implements the DMI protocol handling, command processing,
 * a 16 MB eDRAM cache with prefetching, and four DDR ports
 * (paper §2.1). It is the latency/throughput baseline for Tables 2
 * and 3 and Figures 6 and 7. The paper varies "different
 * performance-related knobs available in it" to sweep memory latency
 * (Table 2); Config models those knobs: cache (and with it the
 * next-line prefetcher) enable, and a conservative-mode pipeline
 * penalty.
 */

#ifndef CONTUTTO_CENTAUR_CENTAUR_HH
#define CONTUTTO_CENTAUR_CENTAUR_HH

#include <array>
#include <vector>

#include "dmi/codec.hh"
#include "dmi/link.hh"
#include "firmware/error_log.hh"
#include "mem/cache_model.hh"
#include "mem/cmd_watchdog.hh"
#include "mem/ddr3_controller.hh"
#include "mem/line_interleave.hh"
#include "mem/line_order.hh"

namespace contutto::centaur
{

/** The Centaur ASIC. */
class CentaurModel : public SimObject, public ckpt::Checkpointable
{
  public:
    struct Config
    {
        std::string configName = "optimized";
        /** The eDRAM cache and its next-line prefetcher. */
        bool cacheEnabled = true;
        /**
         * Conservative-mode penalty: the Table 2 performance knobs
         * (serialized handshakes, speculative access off, ...).
         */
        Tick extraLatency = 0;
    };

    /** The 16 MB eDRAM buffer cache. */
    static constexpr std::uint64_t cacheCapacity = 16 * MiB;
    static constexpr unsigned cacheWays = 8;
    /** Command-processing pipeline latency (ASIC, 2 GHz). */
    static constexpr Tick pipelineLatency = nanoseconds(8);
    /** Cache hit service latency (eDRAM). */
    static constexpr Tick cacheHitLatency = nanoseconds(10);

    /** @{ The Table 2 knob settings (latency-calibrated presets). */
    static Config optimized();     ///< cfg 1: 79 ns class.
    static Config balanced();      ///< cfg 2: 83 ns class.
    static Config conservative();  ///< cfg 3: 116 ns class.
    static Config slowest();       ///< cfg 4: 249 ns class.
    /** @} */

    /** The Table 3 system's latency-optimized Centaur (97 ns). */
    static Config table3Baseline();

    /** Cache and auxiliary functions disabled, handshakes padded to
     *  mirror the feature set ConTutto implements (293 ns class). */
    static Config contuttoMatched();

    CentaurModel(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 const Config &config, dmi::BufferLink &link,
                 std::vector<mem::Ddr3Controller *> ports);

    const Config &config() const { return config_; }

    /** Cache hit rate so far (reads+writes). */
    double cacheHitRate() const { return cache_.hitRate(); }

    /** True when no command is in flight. */
    bool quiescent() const { return activeCommands_ == 0; }

    /** Route RAS events (reclaimed tags, poison) to the FSP log. */
    void attachErrorLog(firmware::ErrorLog *log) { errorLog_ = log; }

    /** The DDR accesses' watchdog: lost completions are re-issued,
     *  then the tag is reclaimed so the host never hangs. */
    mem::CmdWatchdog &cmdWatchdog() { return cmdWatchdog_; }

    struct CentaurStats
    {
        stats::Scalar reads;
        stats::Scalar writes;
        stats::Scalar rmws;
        stats::Scalar flushes;
        stats::Scalar cacheHits;
        stats::Scalar cacheMisses;
        stats::Scalar prefetches;
        stats::Scalar unsupportedCommands;
        mem::CmdWatchdog::Stats watchdog;
        stats::Scalar poisonedReads;      ///< Reads returned poisoned.
    };

    const CentaurStats &centaurStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: the eDRAM cache tags and the
     *  watchdog's issue generations and stall budget. Only legal
     *  while quiescent with nothing parked. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    void frameArrived(const dmi::DownFrame &frame);
    void execute(const dmi::MemCommand &cmd);
    void serve(std::uint8_t tag);
    void serveRead(const dmi::MemCommand &cmd);
    void serveWrite(const dmi::MemCommand &cmd);
    void serveFlush(const dmi::MemCommand &cmd);
    void issueAccess(std::uint8_t tag);
    void readDone(std::uint8_t tag, bool poisoned);
    void writeDone(std::uint8_t tag);
    void finishRead(const dmi::MemCommand &cmd, bool poisoned);
    void sendDone(std::uint8_t tag, TraceId traceId);
    void answerReclaimed(std::uint8_t tag);
    mem::Ddr3Controller &portFor(Addr addr);
    Addr localAddr(Addr addr) const
    {
        return interleave_.localAddr(addr);
    }

    Config config_;
    dmi::BufferLink &link_;
    std::vector<mem::Ddr3Controller *> ports_;
    mem::LineInterleave interleave_;
    dmi::CommandAssembler assembler_;
    mem::CacheModel cache_;
    unsigned activeCommands_ = 0;
    /** Each tag's command from execute() until its done. */
    std::array<dmi::MemCommand, dmi::numTags> cmds_{};
    firmware::ErrorLog *errorLog_ = nullptr;
    CentaurStats stats_;
    mem::CmdWatchdog cmdWatchdog_;
    mem::FlushFence flushFence_;
    /** Writes hold their line from serveWrite() until writeDone(), so
     *  reads cannot pass them through the cache path. */
    mem::LineOrder lineOrder_;
};

} // namespace contutto::centaur

#endif // CONTUTTO_CENTAUR_CENTAUR_HH
