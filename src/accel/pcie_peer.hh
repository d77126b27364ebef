/**
 * @file
 * Direct card-to-card transfers over the PCIe block (paper §3.2).
 *
 * ConTutto carries a PCIe interface that "could be potentially used
 * for direct memory-to-memory transfers between ConTutto cards
 * without burdening the POWER8 memory bus". This models that: a DMA
 * engine on each card's Avalon bus, connected by a peer PCIe link.
 * A transfer streams lines out of the source card's DIMMs, across
 * the link at PCIe bandwidth, and into the destination card's
 * DIMMs — no DMI frame ever crosses the processor's memory channel.
 */

#ifndef CONTUTTO_ACCEL_PCIE_PEER_HH
#define CONTUTTO_ACCEL_PCIE_PEER_HH

#include <functional>

#include "contutto/contutto_card.hh"
#include "sim/parallel.hh"

namespace contutto::accel
{

/** The peer link plus its two DMA engines. */
class PciePeerLink : public SimObject
{
  public:
    struct Params
    {
        /** Effective payload bandwidth (Gen3 x8 class). */
        double bandwidth = 6.4e9;
        /** Doorbell + descriptor fetch per transfer. */
        Tick setupLatency = microseconds(3);
        /** Link propagation per line. */
        Tick lineLatency = nanoseconds(250);
        /** Lines in flight across the link. */
        unsigned window = 64;
    };

    PciePeerLink(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 const Params &params, fpga::ContuttoCard &cardA,
                 fpga::ContuttoCard &cardB);

    /**
     * Split the link across shards of @p exec: card A's Avalon side
     * lives on @p shardA, card B's on @p shardB. The DMA engine
     * state rides the *source* card's shard for each transfer; lines
     * cross the link — and completions return — as executor
     * messages, so they land at window boundaries, identically in
     * serial and parallel modes. Unbound (the default), both cards
     * must share the link's one queue, and lines arrive at their
     * exact tick rather than at a window edge.
     *
     * Call once, before the first transfer, while single-threaded.
     */
    void bindShards(sim::ShardedExecutor *exec, unsigned shardA,
                    unsigned shardB);

    /**
     * DMA @p bytes from @p src on card @p src_card (0 or 1) to
     * @p dst on the other card. One transfer at a time.
     */
    void transfer(unsigned src_card, Addr src, Addr dst,
                  std::uint64_t bytes, std::function<void()> done);

    bool busy() const { return busy_; }

    struct PeerStats
    {
        stats::Scalar transfers;
        stats::Scalar bytesMoved;
    };

    const PeerStats &peerStats() const { return stats_; }

  private:
    void pump();
    void lineArrived(std::uint64_t index, const dmi::CacheLine &data);

    /** @{ Shard plumbing; identity operations when unbound. */
    unsigned shardOf(unsigned card) const
    {
        return card == 0 ? shardA_ : shardB_;
    }
    /** The queue the current transfer's engine state lives on. */
    EventQueue &engineQueue();
    /** Run @p fn on @p shard: inline when unbound, else via
     *  sim::ShardedExecutor::runOn. */
    void runOn(unsigned shard, std::function<void()> fn);
    /** @} */

    Params params_;
    bus::AvalonBus::Port *portA_;
    bus::AvalonBus::Port *portB_;

    /** @{ Sharded split (null/ignored when unbound). */
    sim::ShardedExecutor *exec_ = nullptr;
    unsigned shardA_ = 0;
    unsigned shardB_ = 0;
    /** @} */

    bool busy_ = false;
    unsigned srcCard_ = 0;
    Addr src_ = 0;
    Addr dst_ = 0;
    std::uint64_t totalLines_ = 0;
    std::uint64_t nextRead_ = 0;
    std::uint64_t writesDone_ = 0;
    unsigned inFlight_ = 0;
    Tick linkFreeAt_ = 0;
    std::function<void()> done_;
    PeerStats stats_;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_PCIE_PEER_HH
