/**
 * @file
 * Unified fault-injection campaign driver.
 *
 * Every fault hook in the stack — DRAM bit flips (MemImage), frame
 * corruption/bursts/drops (DmiChannel), memory completion stalls (a
 * buffer's CmdWatchdog), scrambler desync, lane failure, NVDIMM power
 * loss — is routed through one registry so integration tests compose
 * faults declaratively. Randomized campaigns are seeded from sim/random.hh:
 * the same seed plans the identical fault list, which is what lets
 * the soak test assert counter-for-counter reproducibility.
 */

#ifndef CONTUTTO_RAS_FAULT_INJECTOR_HH
#define CONTUTTO_RAS_FAULT_INJECTOR_HH

#include <vector>

#include "dmi/channel.hh"
#include "mem/cmd_watchdog.hh"
#include "mem/device.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace contutto::ras
{

/** Everything the injector knows how to break. */
enum class FaultKind : std::uint8_t
{
    dramBitFlip,      ///< Flip one data bit under the ECC's nose.
    checkBitFlip,     ///< Flip one stored ECC check bit.
    frameCorrupt,     ///< Single-bit corruption of the next frame(s).
    burstError,       ///< Contiguous multi-bit burst on the wire.
    frameDrop,        ///< Frame lost before the receiver.
    engineStall,      ///< Memory completion swallowed in the buffer.
    scramblerDesync,  ///< RX scrambler slips one frame slot.
    laneFail,         ///< Hard lane failure (spare or degrade).
    nvdimmPowerLoss,  ///< Pull power from an NVDIMM.
    nvdimmPowerRestore, ///< Restore power to an NVDIMM.
    powerCut,         ///< Kill a whole power domain.
    powerRestore,     ///< Bring a power domain back.
    brownout,         ///< Input dip; rides through or cuts power.
};

/**
 * A whole power domain the injector can kill and revive — the
 * firmware::PowerDomain implements this; the indirection keeps the
 * RAS layer free of a dependency on the firmware stack.
 */
class PowerTarget
{
  public:
    virtual ~PowerTarget() = default;
    virtual void powerCut() = 0;
    virtual void powerRestore() = 0;
    /** An input dip of @p dip; may or may not reach the rails. */
    virtual void brownout(Tick dip) = 0;
};

const char *faultKindName(FaultKind k);

/** One planned or applied fault. */
struct FaultEvent
{
    Tick when = 0;       ///< Absolute tick (schedule only).
    FaultKind kind = FaultKind::dramBitFlip;
    unsigned target = 0; ///< Index in the registry for this kind.
    Addr addr = 0;       ///< Byte address (memory faults).
    unsigned bit = 0;    ///< Bit index / start bit / lane number.
    unsigned count = 1;  ///< Frames, burst bits, or stalls.
    Tick duration = 0;   ///< Brownout dip length.
};

/** The single registry + driver for scripted fault campaigns. */
class FaultInjector : public SimObject, public ckpt::Checkpointable
{
  public:
    FaultInjector(const std::string &name, EventQueue &eq,
                  const ClockDomain &domain, stats::StatGroup *parent,
                  std::uint64_t seed);

    /** @{ Register targets; returns the index to use in events. */
    unsigned addMemory(mem::MemImage *image);
    unsigned addChannel(dmi::DmiChannel *channel);
    unsigned addWatchdog(mem::CmdWatchdog *watchdog);
    unsigned addNvdimm(mem::NvdimmDevice *nvdimm);
    unsigned addPowerTarget(PowerTarget *target);
    /** @} */

    /** Apply one fault immediately. */
    void inject(const FaultEvent &ev);

    /** Apply one fault at ev.when (must not be in the past). */
    void schedule(const FaultEvent &ev);

    /** Shape of a randomized multi-fault campaign. */
    struct CampaignSpec
    {
        Tick start = 0;           ///< First possible injection time.
        Tick duration = microseconds(100); ///< Injection window.
        /** DRAM single-bit flips, each in a *distinct* 8 B word of
         *  [memBase, memBase+memSize) so corrected-error counters
         *  match the injected count exactly. */
        unsigned bitFlips = 0;
        Addr memBase = 0;
        std::uint64_t memSize = 0;
        unsigned frameCorruptions = 0; ///< Across all channels.
        unsigned frameDrops = 0;       ///< Across all channels.
        unsigned burstErrors = 0;      ///< Across all channels.
        unsigned burstBits = 24;       ///< Bits per injected burst.
        unsigned engineStalls = 0;     ///< Across all watchdogs.
        unsigned scramblerDesyncs = 0; ///< Across all channels.
        /** Power-cut/restore pairs across all power targets; each
         *  cut is followed by a restore after a seeded outage in
         *  [outageMin, outageMax]. Restores may land after
         *  start+duration. */
        unsigned powerCuts = 0;
        Tick outageMin = microseconds(50);
        Tick outageMax = microseconds(500);
        /** Input dips across all power targets; dip lengths are
         *  seeded in [brownoutMin, brownoutMax] — whether one rides
         *  through or turns into an outage is the domain's call. */
        unsigned brownouts = 0;
        Tick brownoutMin = microseconds(1);
        Tick brownoutMax = microseconds(1000);
    };

    /**
     * Deterministically expand a spec into concrete events (same
     * seed, same spec => identical plan) without applying them.
     */
    std::vector<FaultEvent> planCampaign(const CampaignSpec &spec);

    /** Plan and schedule everything; returns the plan. */
    std::vector<FaultEvent> runCampaign(const CampaignSpec &spec);

    /** Faults applied so far for @p kind. */
    std::uint64_t injected(FaultKind kind) const;

    /** Every fault applied so far, in application order. */
    const std::vector<FaultEvent> &history() const { return history_; }

    struct InjectorStats
    {
        stats::Scalar bitFlips;
        stats::Scalar checkFlips;
        stats::Scalar frameCorruptions;
        stats::Scalar burstErrors;
        stats::Scalar frameDrops;
        stats::Scalar engineStalls;
        stats::Scalar scramblerDesyncs;
        stats::Scalar laneFails;
        stats::Scalar powerLosses;
        stats::Scalar powerRestores;
        stats::Scalar powerCuts;
        stats::Scalar domainRestores;
        stats::Scalar brownouts;
    };

    const InjectorStats &injectorStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: the campaign RNG stream and the
     *  applied-fault history. Scheduled-but-unapplied faults are the
     *  caller's to avoid (checkpoint between campaigns). */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    Rng rng_;
    std::vector<mem::MemImage *> memories_;
    std::vector<dmi::DmiChannel *> channels_;
    std::vector<mem::CmdWatchdog *> watchdogs_;
    std::vector<mem::NvdimmDevice *> nvdimms_;
    std::vector<PowerTarget *> powerTargets_;
    std::vector<FaultEvent> history_;
    InjectorStats stats_;
};

} // namespace contutto::ras

#endif // CONTUTTO_RAS_FAULT_INJECTOR_HH
