#include "dmi/channel.hh"

namespace contutto::dmi
{

DmiChannel::DmiChannel(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent, const Params &params)
    : SimObject(name, eq, domain, parent), params_(params),
      createdAt_(eq.curTick()), rng_(params.seed),
      serializeDone_([this] { deliver(); }, name + ".serializeDone"),
      stats_{{this, "framesCarried", "frames fully serialized"},
             {this, "bytesCarried", "payload bytes carried"},
             {this, "framesCorrupted", "frames hit by bit errors"},
             {this, "framesDropped", "frames lost before the receiver"},
             {this, "spareActivations", "hard failures spared"}}
{
    ct_assert(params_.lanes > 0 && params_.bitPeriod > 0);
}

void
DmiChannel::failLane(unsigned lane)
{
    ct_assert(lane < params_.lanes);
    ++lanesFailed_;
    if (lanesFailed_ <= spareLanes) {
        // The spare takes over transparently; the service processor
        // would log this for predictive maintenance.
        ++stats_.spareActivations;
        warn("%s: lane %u failed; spare lane activated",
             name().c_str(), lane);
    } else {
        warn("%s: lane %u failed with no spare left; bundle "
             "degraded", name().c_str(), lane);
    }
}

void
DmiChannel::repairAllLanes()
{
    lanesFailed_ = 0;
}

void
DmiChannel::setSink(std::function<void(const WireFrame &)> sink)
{
    sink_ = std::move(sink);
}

void
DmiChannel::send(const WireFrame &frame)
{
    ct_assert(frame.len == downFrameBytes || frame.len == upFrameBytes);
    queue_.push_back(frame);
    if (!busy_)
        startNext();
}

void
DmiChannel::startNext()
{
    ct_assert(!busy_ && !queue_.empty());
    busy_ = true;
    inFlight_ = queue_.front();
    queue_.pop_front();

    // The transmitter PHY scrambles as bits leave the chip.
    txScrambler_.apply(inFlight_.bytes.data(), inFlight_.len);

    // Bit errors strike on the wire, after scrambling. A degraded
    // bundle (dead lane beyond the spare) damages every frame, since
    // frames stripe across all lanes.
    bool corrupt = forcedCorruptions_ > 0;
    if (corrupt) {
        --forcedCorruptions_;
    } else if (degraded()) {
        corrupt = true;
    } else if (params_.frameErrorRate > 0.0) {
        corrupt = rng_.chance(params_.frameErrorRate);
    }
    if (corrupt) {
        std::uint64_t bit = rng_.below(std::uint64_t(inFlight_.len) * 8);
        inFlight_.bytes[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        ++stats_.framesCorrupted;
    }

    // A pending burst error flips contiguous bits; whatever does not
    // fit in this frame carries into the next one at bit 0.
    if (burstBitsLeft_ > 0) {
        unsigned frameBits = unsigned(inFlight_.len) * 8;
        unsigned start = std::min(burstStartBit_, frameBits);
        unsigned here = std::min(burstBitsLeft_, frameBits - start);
        for (unsigned bit = start; bit < start + here; ++bit)
            inFlight_.bytes[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        burstBitsLeft_ -= here;
        burstStartBit_ = 0; // continuation resumes at the frame start
        if (here > 0 && !corrupt)
            ++stats_.framesCorrupted;
    }

    Tick ser = serializationTime(inFlight_.len);
    busyTicks_ += ser;
    eventq().schedule(&serializeDone_, curTick() + ser);
}

void
DmiChannel::deliver()
{
    WireFrame arrived = inFlight_;

    // The receiver PHY descrambles every frame slot in order, which
    // keeps the keystreams aligned even across replays.
    rxScrambler_.apply(arrived.bytes.data(), arrived.len);

    ++stats_.framesCarried;
    stats_.bytesCarried += double(arrived.len);

    busy_ = false;
    if (!queue_.empty())
        startNext();

    // A dropped frame vanishes after the descrambler advanced (the
    // keystream stays aligned for later frames); the sender's missing
    // ACK eventually triggers a replay.
    if (dropBudget_ > 0) {
        --dropBudget_;
        ++stats_.framesDropped;
        return;
    }

    // Flight time is pure wire delay; model it with a deferred
    // delivery so back-to-back frames pipeline correctly.
    if (sink_)
        OneShotEvent::schedule(eventq(), curTick() + flightTime,
                               [this, arrived] { sink_(arrived); });
}

void
DmiChannel::reseedScramblers(std::uint16_t seed)
{
    txScrambler_.reset(seed);
    rxScrambler_.reset(seed);
}

double
DmiChannel::utilization() const
{
    Tick elapsed = curTick() - createdAt_;
    return elapsed ? double(busyTicks_) / double(elapsed) : 0.0;
}

} // namespace contutto::dmi
