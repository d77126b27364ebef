/**
 * @file
 * One direction of a DMI channel: the physical lanes.
 *
 * A channel serializes frames across @c lanes differential pairs at a
 * fixed bit rate. Serialization time for a frame is
 * bits / lanes * bitPeriod — e.g. a 224-bit downstream frame on 14
 * lanes at 8 Gb/s takes 16 UI = 2 ns, which is exactly two frames per
 * 250 MHz fabric cycle (paper §3.3(i)). The channel scrambles data at
 * the transmitter and descrambles at the receiver, and can inject
 * bit errors (random BER or forced) between the two, which the frame
 * CRC must catch.
 */

#ifndef CONTUTTO_DMI_CHANNEL_HH
#define CONTUTTO_DMI_CHANNEL_HH

#include <deque>
#include <functional>

#include "dmi/frame.hh"
#include "dmi/scrambler.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace contutto::dmi
{

/** A unidirectional bundle of DMI lanes carrying WireFrames. */
class DmiChannel : public SimObject
{
  public:
    struct Params
    {
        unsigned lanes = 14;
        /** One unit interval; 125 ps = 8 Gb/s (ConTutto speed). */
        Tick bitPeriod = 125;
        /** Probability that a carried frame takes a bit flip. */
        double frameErrorRate = 0.0;
        /** RNG seed for error injection. */
        std::uint64_t seed = 1;
    };

    /** Time of flight over the board trace. */
    static constexpr Tick flightTime = nanoseconds(1);

    /** Spare lanes available for hard-failure repair. */
    static constexpr unsigned spareLanes = 1;

    DmiChannel(const std::string &name, EventQueue &eq,
               const ClockDomain &domain, stats::StatGroup *parent,
               const Params &params);

    ~DmiChannel() override
    {
        if (serializeDone_.scheduled())
            eventq().deschedule(&serializeDone_);
    }

    /** Receiver-side hook; called once per delivered frame. */
    void setSink(std::function<void(const WireFrame &)> sink);

    /** Queue a frame for transmission; the channel self-paces. */
    void send(const WireFrame &frame);

    /** Serialization time for a frame of @p bytes bytes. */
    Tick
    serializationTime(std::size_t bytes) const
    {
        std::size_t bits = bytes * 8;
        std::size_t ui = (bits + params_.lanes - 1) / params_.lanes;
        return Tick(ui) * params_.bitPeriod;
    }

    /** Force bit corruption of the next @p n frames (deterministic). */
    void corruptNext(unsigned n) { forcedCorruptions_ += n; }

    /**
     * Force a contiguous burst error of @p nbits starting at bit
     * @p startBit of the next frame. A burst longer than the frame
     * carries into the following frame at bit 0, modelling a noise
     * event spanning a frame boundary; every touched frame counts as
     * corrupted.
     */
    void corruptBurst(unsigned startBit, unsigned nbits)
    {
        burstStartBit_ = startBit;
        burstBitsLeft_ += nbits;
    }

    /**
     * Silently drop the next @p n frames at the receiver (a lost
     * ACK / lost frame fault). The rx descrambler still advances so
     * the keystream stays aligned, as real per-slot descrambling
     * hardware would.
     */
    void dropNext(unsigned n) { dropBudget_ += n; }

    /** Adjust the random bit-error rate at run time (lane sparing). */
    void setFrameErrorRate(double rate) { params_.frameErrorRate = rate; }
    double frameErrorRate() const { return params_.frameErrorRate; }

    /**
     * @{ Lane sparing (paper 2.2: the link carries extra signals
     * for "clocking, sparing and calibration"). The first hard lane
     * failure is absorbed by the spare lane with no functional or
     * performance impact; further failures leave the bundle
     * degraded and every frame arrives damaged until repair.
     */
    void failLane(unsigned lane);
    void repairAllLanes();
    unsigned lanesFailed() const { return lanesFailed_; }
    bool spareInUse() const { return lanesFailed_ >= 1; }
    bool degraded() const { return lanesFailed_ > spareLanes; }
    /** @} */

    /** Reset both scramblers to a common seed (end of training). */
    void reseedScramblers(std::uint16_t seed = 0xFFFF);

    /** Desync the receive scrambler only (fault-injection tests). */
    void desyncRxScrambler() { rxScrambler_.skip(1); }

    /** Raw payload bandwidth in bytes/second at 100% utilization. */
    double
    rawBandwidth() const
    {
        return double(params_.lanes) / (8.0 * 1e-12
                                        * double(params_.bitPeriod));
    }

    /** Fraction of wall-clock the lanes were serializing so far. */
    double utilization() const;

    struct ChannelStats
    {
        stats::Scalar framesCarried;
        stats::Scalar bytesCarried;
        stats::Scalar framesCorrupted;
        stats::Scalar framesDropped;
        stats::Scalar spareActivations;
    };

    const ChannelStats &channelStats() const { return stats_; }

    /** The error-injection RNG stream (checkpointed by campaigns so
     *  a resumed run draws the same fault positions). */
    Rng &rng() { return rng_; }

  private:
    void startNext();
    void deliver();

    Params params_;
    std::function<void(const WireFrame &)> sink_;
    std::deque<WireFrame> queue_;
    bool busy_ = false;
    WireFrame inFlight_;
    Tick busyTicks_ = 0;
    Tick createdAt_ = 0;
    Scrambler txScrambler_;
    Scrambler rxScrambler_;
    Rng rng_;
    unsigned forcedCorruptions_ = 0;
    unsigned burstStartBit_ = 0;
    unsigned burstBitsLeft_ = 0;
    unsigned dropBudget_ = 0;
    unsigned lanesFailed_ = 0;
    EventFunctionWrapper serializeDone_;
    ChannelStats stats_;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_CHANNEL_HH
